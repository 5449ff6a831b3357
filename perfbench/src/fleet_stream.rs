//! `fleet_stream`: 256 small per-rack trees, each fed one snapshot per
//! round through `Engine::run_fleet`, with every job behind an
//! `IngestGuard` repairing `FaultInjector` gaps. In process, no HTTP, no
//! disk: the one workload where cross-tree batching decides the cost.
//!
//! A pass clones the fitted fleet and streams [`ROUNDS`] rounds; passes
//! repeat until `--seconds` have elapsed, so every pass sees the same
//! stream ages and the round statistics do not depend on machine speed.

use std::time::Instant;

use hpc_linalg::Mat;
use hpc_telemetry::{theta, FaultConfig, FaultInjector, Scenario};
use imrdmd::engine::{Engine, FleetJob, KernelOp};
use imrdmd::{GapPolicy, IMrDmd, IMrDmdConfig, IngestGuard, MrDmdConfig, RankSelection};

use crate::stats::{age_ratio, median, per_round};
use crate::trace::{observed, ObsDelta, SpanLog};
use crate::{kernel_layers, op_latency, overhead, repeated_setup, Args, Report, SplitMix};

/// Trees in the fleet.
const TREES: usize = 256;
/// Theta nodes per tree; four series each gives 16 sensor rows.
const NODES: usize = 4;
/// Snapshots in each tree's initial fit.
const FIT_COLS: usize = 96;
/// Rounds per pass, one snapshot per tree per round.
const ROUNDS: usize = 480;
/// Untimed rounds before the first pass (pools, allocator, caches).
const WARMUP: usize = 16;
/// Trees replayed one by one through `try_partial_fit` as the oracle.
const CHECKED_TREES: usize = 8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Fleet {
    fitted: Vec<IMrDmd>,
    guards: Vec<IngestGuard>,
    /// `batches[tree][round]`: one (possibly gappy) snapshot column.
    batches: Vec<Vec<Mat>>,
}

fn config(dt: f64) -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt,
            max_levels: 2,
            max_cycles: 2,
            rank: RankSelection::Fixed(6),
            min_window: 16,
            n_threads: 1,
            ..MrDmdConfig::default()
        },
        // root_step = 96 / (nyquist 4 · 2 · cycles 2) = 6: one round in six
        // advances the decimated root stream; the rest only extend windows.
        isvd_max_rank: 8,
        drift_threshold: None,
        keep_history: false,
        auto_refresh: false,
    }
}

/// Sparse gaps: single dropped readings, one-snapshot NaN runs and the
/// occasional dead sensor. Never duplicates, so every tree sees exactly one
/// column per round.
fn faults(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        drop_prob: 0.002,
        nan_run_prob: 0.05,
        nan_run_max_len: 1,
        sensor_dropout_prob: 0.02,
        duplicate_prob: 0.0,
        pathological_prob: 0.0,
    }
}

fn setup(seed: u64) -> Fleet {
    let mut fleet = Fleet {
        fitted: Vec::with_capacity(TREES),
        guards: Vec::with_capacity(TREES),
        batches: Vec::with_capacity(TREES),
    };
    for k in 0..TREES {
        let tree_seed = seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
        let sc = Scenario::sc_log(theta().scaled(NODES), FIT_COLS + ROUNDS, tree_seed);
        let fit = sc.generate(0, FIT_COLS);
        // One generator call for the whole stream, cut into columns: a
        // generator call per column costs ten times as much set-up.
        let block = sc.generate(FIT_COLS, FIT_COLS + ROUNDS);
        let columns = (0..ROUNDS).map(|r| block.cols_range(r, r + 1));
        let batches: Vec<Mat> =
            FaultInjector::with_start(columns, faults(tree_seed ^ 0x5EED), FIT_COLS).collect();
        // The guard has seen the clean fit block, as a daemon shard's has.
        let mut guard = IngestGuard::new(GapPolicy::Interpolate, fit.rows());
        let _ = guard.repair(&fit);
        fleet.fitted.push(IMrDmd::fit(&fit, &config(sc.dt())));
        fleet.guards.push(guard);
        fleet.batches.push(batches);
    }
    fleet
}

/// One pass's outcome.
struct Pass {
    trees: Vec<IMrDmd>,
    round_ms: Vec<f64>,
    errors: u64,
    plan_ops: usize,
    root_advances: usize,
}

fn pass(
    engine: &mut Engine,
    fleet: &Fleet,
    rounds: usize,
    mut spans: Option<(&mut SpanLog, u64)>,
) -> Pass {
    let mut trees = fleet.fitted.clone();
    let mut guards = fleet.guards.clone();
    let mut out = Pass {
        trees: Vec::new(),
        round_ms: Vec::with_capacity(rounds),
        errors: 0,
        plan_ops: 0,
        root_advances: 0,
    };
    for r in 0..rounds {
        let mut jobs: Vec<FleetJob<'_>> = trees
            .iter_mut()
            .zip(guards.iter_mut())
            .zip(&fleet.batches)
            .map(|((tree, guard), batches)| FleetJob {
                tree,
                batch: &batches[r],
                guard: Some(guard),
            })
            .collect();
        let start = Instant::now();
        let results = engine.run_fleet(&mut jobs);
        let end = Instant::now();
        out.round_ms.push((end - start).as_secs_f64() * 1e3);
        if let Some((log, id0)) = spans.as_mut() {
            log.record("engine.run_fleet", *id0 + r as u64, start, end);
        }
        out.errors += results.iter().filter(|res| res.is_err()).count() as u64;
        let plan = &engine.last_plan().ops;
        out.plan_ops += plan.len();
        out.root_advances += plan
            .iter()
            .filter(|op| matches!(op, KernelOp::IsvdProject { .. }))
            .count();
    }
    out.trees = trees;
    out
}

fn serialized_bytes(trees: &[IMrDmd]) -> f64 {
    trees
        .iter()
        .map(|t| serde_json::to_string(t).map_or(0, |s| s.len()))
        .sum::<usize>() as f64
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let (fleet, setup_s) = repeated_setup(SETUPS, || setup(args.seed), drop);
    let mut engine = Engine::new();
    let mut report = Report::default();
    report.set("setup_s", setup_s);

    let _ = pass(&mut engine, &fleet, WARMUP, None);

    let origin = Instant::now();
    let mut log = SpanLog::new(origin);
    let mut obs = ObsDelta::default();
    let (mut all_ms, mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut ratios = Vec::new();
    let (mut traced_rounds, mut plan_ops, mut root_advances) = (0usize, 0usize, 0usize);
    let mut last: Option<Pass> = None;
    let mut n_pass = 0u64;
    while n_pass == 0 || origin.elapsed().as_secs_f64() < args.seconds {
        // A traced run alternates traced and untraced passes; the gap
        // between the two is the tracing overhead.
        let traced = args.trace && n_pass.is_multiple_of(2);
        let p = if traced {
            observed(&mut obs, || {
                pass(
                    &mut engine,
                    &fleet,
                    ROUNDS,
                    Some((&mut log, n_pass * ROUNDS as u64)),
                )
            })
        } else {
            pass(&mut engine, &fleet, ROUNDS, None)
        };
        report.attempted += (TREES * ROUNDS) as u64;
        report.failed += p.errors;
        if traced {
            traced_ms.extend_from_slice(&p.round_ms);
            traced_rounds += ROUNDS;
            plan_ops += p.plan_ops;
            root_advances += p.root_advances;
        } else {
            untraced_ms.extend_from_slice(&p.round_ms);
        }
        ratios.extend(age_ratio(&p.round_ms));
        all_ms.extend_from_slice(&p.round_ms);
        last = Some(p);
        n_pass += 1;
    }
    let last = last.ok_or("no pass ran")?;

    // Oracle: seeded trees replayed alone through the guarded single-tree
    // path must serialize exactly as the engine left them.
    let mut rng = SplitMix::new(args.seed, 0xF1EE7);
    for k in rng.distinct(CHECKED_TREES, TREES) {
        let mut tree = fleet.fitted[k].clone();
        let mut guard = fleet.guards[k].clone();
        let ok = fleet.batches[k]
            .iter()
            .all(|b| tree.try_partial_fit(b, &mut guard).is_ok())
            && serde_json::to_string(&tree).ok() == serde_json::to_string(&last.trees[k]).ok();
        report.check(
            ok,
            &format!("tree {k}: engine state differs from try_partial_fit"),
        );
    }

    // Pooled over every pass: rounds are short, so a steal burst touches
    // few of them, while whole passes differ more than their rounds do.
    let busy_s = op_latency(&mut report, &all_ms, 1);
    report.set(
        "ops_per_s",
        per_round((TREES * all_ms.len()) as f64, busy_s),
    );
    report.set("op_age_ratio", median(&ratios).unwrap_or(0.0));

    if args.trace {
        let rounds = traced_rounds as f64;
        let traced_ns: f64 = traced_ms.iter().sum::<f64>() * 1e6;
        kernel_layers(&mut report, &obs, rounds, traced_ns);
        report.set("engine.ops_per_round", per_round(plan_ops as f64, rounds));
        report.set(
            "engine.root_advance_ratio",
            per_round(root_advances as f64, rounds * TREES as f64),
        );
        report.set(
            "imrdmd.state_bytes_growth",
            per_round(
                serialized_bytes(&last.trees),
                serialized_bytes(&fleet.fitted),
            ),
        );
        overhead(
            &mut report,
            &traced_ms,
            &untraced_ms,
            log.count("engine.run_fleet"),
        );
        eprintln!("{}", log.summary());
    }
    eprintln!(
        "fleet_stream: {n_pass} passes x {ROUNDS} rounds x {TREES} trees, setup {setup_s:.3} s"
    );
    Ok(report)
}
