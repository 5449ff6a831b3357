//! Crash-point chaos matrix for the durable ingest path.
//!
//! Each cell of the matrix constructs, with the real `Checkpointer`/`Wal`
//! APIs, the exact disk state a process crash would leave at one point of
//! the ingest protocol — before the WAL append, after the append but
//! before the ack, after the ack but before the next checkpoint, or mid
//! checkpoint write — optionally with a torn final WAL frame on top.
//! Recovery (`Shard::recover`) plus the client's at-least-once resend
//! must then land the shard in a state **bitwise identical** (string
//! equality on serde JSON) to an in-process oracle that streamed the same
//! batches without ever crashing.

use std::path::{Path, PathBuf};

use imrdmd_serve::{ServeConfig, Shard, ShardManager, ShardState};
use mrdmd_suite::prelude::*;
use proptest::prelude::*;

const TENANT: &str = "t00";

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("imrdmd-wal-chaos").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cfg(dt: f64, n_threads: usize, strategy: FitStrategy) -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt,
            max_levels: 3,
            max_cycles: 2,
            rank: RankSelection::Svht,
            n_threads,
            strategy,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    }
}

/// Deterministic gappy batches: scenario chunks with NaN runs poked into
/// every batch after the first, so recovery exercises the repair path.
fn gappy_batches(seed: u64, total: usize, chunk: usize) -> (f64, Vec<Mat>) {
    let mut machine = theta().scaled(4);
    machine.series_per_node = 1;
    let sc = Scenario::sc_log(machine, total, seed);
    let mut out = Vec::new();
    let mut t = 0;
    while t < total {
        let hi = (t + chunk).min(total);
        let mut b = sc.generate(t, hi);
        if t > 0 {
            let row = (seed as usize + t) % b.rows();
            for j in (b.cols() / 3)..(b.cols() / 3 + 3).min(b.cols()) {
                b[(row, j)] = f64::NAN;
            }
        }
        out.push(b);
        t = hi;
    }
    (sc.dt(), out)
}

/// The never-crashed reference: the same cold-start + `try_partial_fit`
/// pipeline the shard runs, with no WAL or checkpoints in the way.
fn oracle(batches: &[Mat], upto: usize, cfg: &IMrDmdConfig, policy: GapPolicy) -> IMrDmd {
    let mut model: Option<IMrDmd> = None;
    let mut guard: Option<IngestGuard> = None;
    for b in &batches[..upto] {
        match &mut model {
            None => {
                let mut g = IngestGuard::new(policy, b.rows());
                let (clean, _) = g.repair(b).unwrap();
                model = Some(IMrDmd::fit(clean.as_ref().unwrap_or(b), cfg));
                guard = Some(g);
            }
            Some(m) => {
                m.try_partial_fit(b, guard.as_mut().unwrap()).unwrap();
            }
        }
    }
    model.unwrap()
}

/// The repaired form of `batches[k]` as the live pipeline would log it:
/// replay the guard through the first `k` batches, then repair batch `k`.
fn repaired(batches: &[Mat], k: usize, policy: GapPolicy) -> Mat {
    let mut g = IngestGuard::new(policy, batches[0].rows());
    for b in &batches[..k] {
        g.repair(b).unwrap();
    }
    let (clean, _) = g.repair(&batches[k]).unwrap();
    clean.unwrap_or_else(|| batches[k].clone())
}

fn model_json(shard: &Shard) -> String {
    shard
        .with_model(|m| serde_json::to_string(m).unwrap())
        .unwrap()
}

fn ck(dir: &Path, every: usize, keep: usize) -> Option<Checkpointer> {
    Some(
        Checkpointer::for_shard(dir, every, TENANT)
            .unwrap()
            .with_retention(keep),
    )
}

/// Where in the ingest protocol the process dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CrashPoint {
    /// Batch `k` arrived but its WAL append never happened (no ack sent):
    /// disk holds state through batch `k-1` only.
    BeforeAppend,
    /// Batch `k` was appended (fsynced under `batch` durability) but the
    /// process died before the ack reached the client.
    AfterAppendBeforeAck,
    /// The client saw batch `k`'s ack; the crash hit before the next
    /// checkpoint. The acked batch must survive on the WAL alone.
    AfterAckBeforeCheckpoint,
    /// The crash tore the newest checkpoint mid-write; recovery must fall
    /// back to the retained predecessor and replay the WAL over it.
    MidCheckpoint,
}

const ALL_POINTS: [CrashPoint; 4] = [
    CrashPoint::BeforeAppend,
    CrashPoint::AfterAppendBeforeAck,
    CrashPoint::AfterAckBeforeCheckpoint,
    CrashPoint::MidCheckpoint,
];

/// One cell of the kill matrix: the stream, where in it the process
/// dies, and the persistence cadence in force when it does.
struct Cell<'a> {
    batches: &'a [Mat],
    k: usize,
    point: CrashPoint,
    torn: bool,
    cfg: &'a IMrDmdConfig,
    policy: GapPolicy,
    every: usize,
}

impl Cell<'_> {
    /// Builds the post-crash disk state: batches `0..k` fully ingested
    /// (checkpoint cadence `every`), then the crash at `point` while
    /// handling batch `k`. With `torn`, a partial frame (a real frame
    /// with its tail cut off mid-payload) is left on the log, as a crash
    /// inside the append's `write_all` would.
    fn build_crash_state(&self, dir: &Path) {
        let wal = Wal::open(dir, TENANT, Durability::Batch).unwrap();
        let mut shard =
            Shard::new(TENANT, self.cfg, self.policy, ck(dir, self.every, 3)).with_wal(Some(wal));
        let mut pos = 0usize;
        let upto = match self.point {
            CrashPoint::MidCheckpoint => self.k + 1,
            _ => self.k,
        };
        for b in &self.batches[..upto] {
            shard.ingest(b, Some(pos)).unwrap();
            pos += b.cols();
        }
        let steps_now = pos as u64;
        drop(shard); // the "crash": in-memory state is gone, file handles closed

        match self.point {
            CrashPoint::BeforeAppend => {}
            CrashPoint::AfterAppendBeforeAck | CrashPoint::AfterAckBeforeCheckpoint => {
                // The append happened (durably, under `batch`) but nothing
                // after it did: log the repaired batch `k` by hand.
                let mut wal = Wal::open(dir, TENANT, Durability::Batch).unwrap();
                wal.append(steps_now, &repaired(self.batches, self.k, self.policy))
                    .unwrap();
            }
            CrashPoint::MidCheckpoint => {
                // Batch `k` completed, then the next checkpoint write tore:
                // flip bytes inside the newest checkpoint's payload.
                let history = shard_checkpoint_history(dir, TENANT).unwrap();
                let (_, newest) = history.first().expect("a checkpoint must exist");
                let mut raw = std::fs::read(newest).unwrap();
                let n = raw.len();
                for b in &mut raw[n - 16..] {
                    *b ^= 0xff;
                }
                std::fs::write(newest, &raw).unwrap();
            }
        }

        if self.torn {
            // A crash mid-`write_all` leaves a prefix of the next frame.
            // Write the next batch's frame for real, then cut into its tail.
            let next = self.next_index();
            if next < self.batches.len() {
                let first = self.batches[..next].iter().map(Mat::cols).sum::<usize>() as u64;
                let mut wal = Wal::open(dir, TENANT, Durability::Batch).unwrap();
                wal.append(first, &repaired(self.batches, next, self.policy))
                    .unwrap();
                drop(wal);
                let path = Wal::path_for(dir, TENANT);
                let len = std::fs::metadata(&path).unwrap().len();
                let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                f.set_len(len - 9).unwrap();
            }
        }
    }

    /// Index of the first batch whose WAL frame never completed.
    fn next_index(&self) -> usize {
        match self.point {
            CrashPoint::BeforeAppend => self.k,
            _ => self.k + 1,
        }
    }

    /// Recovers the cell's shard and asserts the recovery half of the
    /// contract: the rebuilt state is bitwise equal to the oracle fed
    /// exactly the batches the disk could know about. Returns the shard
    /// (with a fresh WAL attached) plus how many batches its state holds.
    fn recover_and_check(&self, dir: &Path) -> (Shard, usize) {
        let Cell { point, torn, .. } = *self;
        let rec = Shard::recover(dir, TENANT, self.cfg, self.policy, ck(dir, self.every, 3));
        assert_ne!(
            rec.shard.state(),
            ShardState::Corrupt,
            "{point:?}/torn={torn}: recovery must not corrupt"
        );
        if torn {
            assert!(rec.torn_wal, "{point:?}: the torn tail must be detected");
        }
        if point == CrashPoint::MidCheckpoint {
            assert!(
                rec.fallbacks >= 1,
                "a torn newest checkpoint must be skipped"
            );
            assert!(rec.from_checkpoint, "the retained predecessor must load");
        }
        // Under `batch` durability every appended (= acked) batch is on
        // disk: the recovered state must hold them all, and nothing more.
        let have = self.next_index();
        let expect = oracle(self.batches, have, self.cfg, self.policy);
        let expect_json = serde_json::to_string(&expect).unwrap();
        assert_eq!(
            model_json(&rec.shard),
            expect_json,
            "{point:?}/torn={torn}: recovered state must be bitwise-identical \
             to the uninterrupted oracle through batch {have}"
        );
        let wal = Wal::open(dir, TENANT, Durability::Batch).unwrap();
        (rec.shard.with_wal(Some(wal)), have)
    }
}

/// Runs the client's at-least-once resume against the recovered shard:
/// every delivery whose ack was not observed is re-sent under its original
/// first-step label; duplicates come back 409 and are skipped.
fn resume_stream(shard: &mut Shard, batches: &[Mat], acked: usize) {
    let mut pos = 0usize;
    for (i, b) in batches.iter().enumerate() {
        if i >= acked {
            match shard.ingest(b, Some(pos)) {
                Ok(_) => {}
                Err(e) => assert_eq!(
                    e.status(),
                    409,
                    "resend may only be refused as a duplicate: {e}"
                ),
            }
        }
        pos += b.cols();
    }
}

/// One matrix cell end to end: build crash state, recover, resume,
/// compare bitwise against the never-crashed oracle over the full stream.
fn run_cell(mut cell: Cell<'_>, cell_name: &str) {
    let dir = scratch_dir(cell_name);
    // A tear needs a "next" frame to cut into; past the last batch the
    // cell degenerates to its untorn twin.
    cell.torn = cell.torn && cell.next_index() < cell.batches.len();
    cell.build_crash_state(&dir);
    let (mut shard, recovered) = cell.recover_and_check(&dir);
    // The client resends from its own ack horizon, which can be behind
    // what recovery rebuilt (AfterAppendBeforeAck): those resends must be
    // absorbed as 409 duplicates, never double-absorbed.
    let acked = match cell.point {
        CrashPoint::BeforeAppend | CrashPoint::AfterAppendBeforeAck => cell.k,
        CrashPoint::AfterAckBeforeCheckpoint | CrashPoint::MidCheckpoint => cell.k + 1,
    };
    assert!(acked <= recovered || cell.point == CrashPoint::BeforeAppend);
    resume_stream(&mut shard, cell.batches, acked.min(recovered));
    let expect = oracle(cell.batches, cell.batches.len(), cell.cfg, cell.policy);
    assert_eq!(
        model_json(&shard),
        serde_json::to_string(&expect).unwrap(),
        "{cell_name}: resumed state diverged from the uninterrupted oracle"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The full kill matrix: every crash point × torn-tail × two crash
/// indices, all under `batch` durability, all required to recover
/// bitwise with no acked batch lost.
#[test]
fn crash_matrix_recovers_bitwise() {
    let (dt, batches) = gappy_batches(11, 160, 40);
    let cfg = cfg(dt, 1, FitStrategy::Exact);
    for k in [1, 2] {
        for point in ALL_POINTS {
            for torn in [false, true] {
                let name = format!("cell-{k}-{point:?}-torn{torn}");
                run_cell(
                    Cell {
                        batches: &batches,
                        k,
                        point,
                        torn,
                        cfg: &cfg,
                        policy: GapPolicy::Interpolate,
                        every: 1,
                    },
                    &name,
                );
            }
        }
    }
}

/// Sparse checkpoints (every 2 batches) force recovery to lean on WAL
/// replay for the uncheckpointed tail.
#[test]
fn wal_replay_covers_uncheckpointed_tail() {
    let (dt, batches) = gappy_batches(23, 160, 40);
    let cfg = cfg(dt, 1, FitStrategy::Exact);
    run_cell(
        Cell {
            batches: &batches,
            k: 3,
            point: CrashPoint::AfterAckBeforeCheckpoint,
            torn: false,
            cfg: &cfg,
            policy: GapPolicy::Interpolate,
            every: 2,
        },
        "sparse-ckpt",
    );
}

/// The retention satellite: with keep-last-K pruning, the oldest
/// checkpoints are deleted, the newest K survive, and a corrupt newest
/// falls back to a retained predecessor (covered in the matrix's
/// MidCheckpoint column; here the pruning itself is pinned down).
#[test]
fn checkpoint_retention_keeps_last_k() {
    let (dt, batches) = gappy_batches(31, 200, 40);
    let cfg = cfg(dt, 1, FitStrategy::Exact);
    let dir = scratch_dir("retention");
    let wal = Wal::open(&dir, TENANT, Durability::Batch).unwrap();
    let mut shard =
        Shard::new(TENANT, &cfg, GapPolicy::Interpolate, ck(&dir, 1, 3)).with_wal(Some(wal));
    let mut pos = 0;
    for b in &batches {
        shard.ingest(b, Some(pos)).unwrap();
        pos += b.cols();
    }
    drop(shard);
    let history = shard_checkpoint_history(&dir, TENANT).unwrap();
    assert_eq!(
        history.len(),
        3,
        "5 checkpoints written, keep-last-3 must prune to 3"
    );
    let newest = history.first().unwrap().0;
    assert_eq!(
        newest as usize, pos,
        "the newest checkpoint is never pruned"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Disk-full simulation: an injected WAL append failure must degrade the
/// shard — it keeps absorbing and acking, reports the cause, and never
/// crashes — and the degradation is sticky.
#[test]
fn wal_append_failure_degrades_but_keeps_serving() {
    let (dt, batches) = gappy_batches(47, 160, 40);
    let cfg = cfg(dt, 1, FitStrategy::Exact);
    let dir = scratch_dir("degrade");
    let wal = Wal::open(&dir, TENANT, Durability::Batch).unwrap();
    let mut shard =
        Shard::new(TENANT, &cfg, GapPolicy::Interpolate, ck(&dir, 1, 3)).with_wal(Some(wal));
    shard.ingest(&batches[0], Some(0)).unwrap();
    assert_eq!(shard.state(), ShardState::Ready);

    imrdmd::wal::arm_append_failure(1);
    let mut pos = batches[0].cols();
    let r = shard.ingest(&batches[1], Some(pos)).unwrap();
    imrdmd::wal::disarm_append_failure();
    assert!(!r.cold_start, "the batch itself must still be absorbed");
    assert_eq!(shard.state(), ShardState::DurabilityDegraded);
    let status = shard.status();
    assert!(
        status
            .degraded_cause
            .as_deref()
            .unwrap_or("")
            .contains("injected"),
        "{:?}",
        status.degraded_cause
    );

    // Still serving, still absorbing; the WAL stays off (sticky).
    pos += batches[1].cols();
    shard.ingest(&batches[2], Some(pos)).unwrap();
    assert!(shard.health().is_ok());
    assert_eq!(shard.state(), ShardState::DurabilityDegraded);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fleet admission control: beyond the in-flight budget, ingests are shed
/// with 503 + `Retry-After`, and slots free when permits drop.
#[test]
fn admission_budget_sheds_with_retry_after() {
    let mgr = ShardManager::new(ServeConfig {
        max_inflight: 2,
        ..ServeConfig::default()
    });
    let p1 = mgr.admit_ingest().unwrap();
    let _p2 = mgr.admit_ingest().unwrap();
    let err = mgr.admit_ingest().unwrap_err();
    assert_eq!(err.status(), 503);
    assert_eq!(
        err.retry_after(),
        Some(1),
        "load sheds must carry Retry-After"
    );
    drop(p1);
    let _p3 = mgr.admit_ingest().expect("a dropped permit frees its slot");

    // The tenant cap carries its own (slower) Retry-After.
    let tight = ShardManager::new(ServeConfig {
        max_tenants: 1,
        ..ServeConfig::default()
    });
    tight.shard_or_create("a").unwrap();
    let err = tight.shard_or_create("b").unwrap_err();
    assert_eq!(err.status(), 429);
    assert_eq!(err.retry_after(), Some(5));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Randomized crash cells: any crash point, any crash index, any
    /// thread count, exact or sketched fits, torn or clean tails —
    /// checkpoint + WAL replay + resend is always bitwise-identical to
    /// uninterrupted streaming.
    #[test]
    fn recovery_is_bitwise_for_arbitrary_crash_points(
        seed in 0u64..50,
        k in 1usize..4,
        point_idx in 0usize..4,
        torn in proptest::sample_select(vec![false, true]),
        n_threads in proptest::sample_select(vec![1usize, 2, 4]),
        sketched in proptest::sample_select(vec![false, true]),
    ) {
        let (dt, batches) = gappy_batches(seed, 160, 40);
        let strategy = if sketched {
            FitStrategy::Sketched { rank_oversample: 6, power_iters: 1, seed: seed + 1 }
        } else {
            FitStrategy::Exact
        };
        let cfg = cfg(dt, n_threads, strategy);
        let name = format!(
            "prop-{seed}-{k}-{point_idx}-{torn}-{n_threads}-{sketched}"
        );
        run_cell(
            Cell {
                batches: &batches,
                k,
                point: ALL_POINTS[point_idx],
                torn,
                cfg: &cfg,
                policy: GapPolicy::Interpolate,
                every: 1,
            },
            &name,
        );
    }
}
