//! Fleet rounds: one streaming round for every tree of a fleet.
//!
//! A sharded deployment runs hundreds of small per-rack [`IMrDmd`] trees.
//! [`Engine::run_fleet`] takes one batch per tree and runs each tree's
//! round — shape check, optional ingest guard, then the same
//! [`IMrDmd::try_partial_fit`] round a single tree runs — fanning the trees
//! out over the engine's [`WorkerPool`], one tree per task.
//!
//! ## Determinism
//!
//! Trees are independent: a round reads and writes only its own tree and
//! guard, and each job's result lands in its own slot. Shard count, worker
//! threads and submission order therefore change wall-clock time only,
//! never any tree's state or report.

use crate::error::CoreError;
use crate::imrdmd::{IMrDmd, RoundReport};
use crate::ingest::IngestGuard;
use hpc_linalg::pool::WorkerPool;
use hpc_linalg::Mat;

/// One tree's unit of work in a fleet round: the tree, the batch of new
/// snapshot columns to absorb, and (optionally) the ingest guard that
/// repairs the batch first — mirroring [`IMrDmd::try_partial_fit`].
pub struct FleetJob<'a> {
    /// The tree absorbing this batch.
    pub tree: &'a mut IMrDmd,
    /// New snapshots (columns) for this tree, rows matching the stream.
    pub batch: &'a Mat,
    /// Optional gap/NaN repair pass, exactly as in the guarded single-tree
    /// round. `None` skips repair (the `partial_fit` path).
    pub guard: Option<&'a mut IngestGuard>,
}

/// One kernel op of a fleet round, recorded in the engine's [`ExecPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelOp {
    /// The streaming root factorisation of one tree absorbed new decimated
    /// columns (its basis projection `Uᵀ·X`).
    IsvdProject {
        /// Index of the tree in the submitted job slice.
        tree: usize,
        /// Rank of that tree's root factorisation before the update.
        rank: usize,
        /// Sensor rows of the projected block.
        rows: usize,
        /// New decimated columns entering the factorisation.
        cols: usize,
    },
    /// One tree's root DMD was re-solved (its `B = Y·V·Σ⁻¹` product).
    RootProduct {
        /// Index of the tree in the submitted job slice.
        tree: usize,
        /// Rows of `Y` (sensors).
        rows: usize,
        /// Inner dimension (decimated columns of `Y`).
        inner: usize,
        /// Rank of the root factorisation the solve ran from.
        cols: usize,
    },
}

/// The kernel-level plan of the last fleet round: the root work each tree
/// did, for tests and for observing how many trees advanced their root.
#[derive(Clone, Debug, Default)]
pub struct ExecPlan {
    /// The recorded ops: every projection in job order, then every root
    /// product in job order.
    pub ops: Vec<KernelOp>,
}

/// The fleet-round executor: owns the worker pool the trees fan out over.
/// One engine drives any number of fleets/shards; [`Engine::run_fleet`]
/// borrows the trees only for the duration of the call.
pub struct Engine {
    pool: WorkerPool,
    last_plan: ExecPlan,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// One job's slot while the fleet round is in flight.
struct Task<'j, 'a> {
    index: usize,
    job: &'j mut FleetJob<'a>,
    result: Option<Result<RoundReport, CoreError>>,
    project: Option<KernelOp>,
    product: Option<KernelOp>,
}

impl Engine {
    /// An engine over the process-default worker budget
    /// ([`WorkerPool::new(0)`](hpc_linalg::pool::WorkerPool::new)).
    pub fn new() -> Engine {
        Engine::with_threads(0)
    }

    /// An engine whose trees fan out over `n` workers (`0` = auto). Results
    /// are identical at every thread count.
    pub fn with_threads(n: usize) -> Engine {
        Engine {
            pool: WorkerPool::new(n),
            last_plan: ExecPlan::default(),
        }
    }

    /// The kernel ops collected by the most recent [`Engine::run_fleet`].
    pub fn last_plan(&self) -> &ExecPlan {
        &self.last_plan
    }

    /// Executes one streaming round for every job.
    ///
    /// Per-tree results (state and [`RoundReport`]) are bitwise-identical
    /// to calling [`IMrDmd::try_partial_fit`] /
    /// [`IMrDmd::partial_fit`] on each tree individually, in any order.
    /// Errors are per-job: one tree's shape mismatch or guard rejection
    /// never blocks the rest of the fleet.
    pub fn run_fleet(&mut self, jobs: &mut [FleetJob<'_>]) -> Vec<Result<RoundReport, CoreError>> {
        let mut tasks: Vec<Task<'_, '_>> = jobs
            .iter_mut()
            .enumerate()
            .map(|(index, job)| Task {
                index,
                job,
                result: None,
                project: None,
                product: None,
            })
            .collect();
        self.pool.for_each(&mut tasks, &|t: &mut Task<'_, '_>| {
            let tree = &mut *t.job.tree;
            let (rank, rows) = (tree.root_rank(), tree.n_rows());
            let res = tree.try_round(t.job.batch, t.job.guard.as_deref_mut());
            if let Ok(r) = &res {
                if r.new_root_cols > 0 {
                    t.project = Some(KernelOp::IsvdProject {
                        tree: t.index,
                        rank,
                        rows,
                        cols: r.new_root_cols,
                    });
                    if r.health.root.is_healthy() {
                        t.product = Some(KernelOp::RootProduct {
                            tree: t.index,
                            rows,
                            inner: tree.root.stream_len() - 1,
                            cols: tree.root_rank(),
                        });
                    }
                }
            }
            t.result = Some(res);
        });
        let plan = &mut self.last_plan.ops;
        plan.clear();
        plan.extend(tasks.iter().filter_map(|t| t.project));
        plan.extend(tasks.iter().filter_map(|t| t.product));
        // `for_each` visits every task exactly once, so every slot is
        // filled; the fallback only keeps this path panic-free.
        tasks
            .into_iter()
            .map(|t| {
                t.result.unwrap_or_else(|| {
                    Err(CoreError::ShapeMismatch {
                        expected_rows: t.job.tree.n_rows(),
                        got_rows: t.job.batch.rows(),
                    })
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imrdmd::IMrDmdConfig;
    use crate::mrdmd::MrDmdConfig;

    fn signal(p: usize, t: usize, seed: usize) -> Mat {
        Mat::from_fn(p, t, |i, j| {
            let tt = j as f64 * 0.4;
            (0.05 * tt + seed as f64).sin() * ((i + seed) as f64 * 0.3).cos()
                + 0.1 * (1.1 * tt + i as f64 * 0.7).sin()
        })
    }

    fn fleet_cfg(max_levels: usize, min_window: usize) -> IMrDmdConfig {
        IMrDmdConfig {
            mr: MrDmdConfig {
                max_levels,
                min_window,
                ..MrDmdConfig::default()
            },
            drift_threshold: Some(1e6),
            ..IMrDmdConfig::default()
        }
    }

    #[test]
    fn engine_reports_per_job_errors_and_records_plan() {
        let cfg = fleet_cfg(2, 4);
        let mut a = IMrDmd::fit(&signal(5, 40, 2), &cfg);
        let mut b = IMrDmd::fit(&signal(5, 40, 3), &cfg);
        let good = signal(5, 9, 4);
        let wrong = signal(7, 9, 5); // row mismatch for tree `a`
        let mut engine = Engine::new();
        let mut jobs = vec![
            FleetJob {
                tree: &mut a,
                batch: &wrong,
                guard: None,
            },
            FleetJob {
                tree: &mut b,
                batch: &good,
                guard: None,
            },
        ];
        let results = engine.run_fleet(&mut jobs);
        drop(jobs);
        assert!(matches!(results[0], Err(CoreError::ShapeMismatch { .. })));
        assert!(results[1].is_ok(), "healthy job must not be blocked");
        // The plan records the surviving tree's kernel work under its job
        // index.
        assert!(engine.last_plan().ops.iter().all(|op| matches!(
            op,
            KernelOp::IsvdProject { tree: 1, .. } | KernelOp::RootProduct { tree: 1, .. }
        )));
        assert!(engine
            .last_plan()
            .ops
            .iter()
            .any(|op| matches!(op, KernelOp::IsvdProject { .. })));
    }
}
