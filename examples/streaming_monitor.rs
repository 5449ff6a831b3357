//! Streaming monitor: the paper's online setting end to end, hardened.
//!
//! Telemetry arrives in fixed-size chunks through a fault injector (NaN
//! runs, dropped samples, sensor dropout, and occasional rank-collapsing
//! pathological batches — the stream hygiene of real facility feeds); every
//! chunk is ingested by an `imrdmd_serve::Shard` — the daemon's tenant
//! lifecycle — which repairs gaps once with its ingest guard and folds the
//! repaired chunk into the I-mrDMD state with one `partial_fit` round. Each
//! round prints the model's numerical health summary alongside drift and
//! z-score status.
//! Z-scores are refreshed against a baseline band, hot/idle nodes are
//! reported. The model runs with `auto_refresh`: a round whose root drift
//! crosses the configured threshold refits levels 2..L from the retained
//! history inside that same round (`IMrDmd::try_refresh_subtrees`, the
//! paper's "embarrassingly parallel" refresh, fanned across the worker
//! pool), and the round prints `[refreshed]`.
//!
//! With `--store-dir DIR` the shard (model, ingest guard and round count)
//! is snapshotted atomically every `--checkpoint-every` chunks as
//! `DIR/checkpoints/ckpt-monitor-<steps>.ckpt`, the store layout of
//! `imrdmd-cli`; `--resume` restarts from the newest one
//! through `Shard::recover` instead of refitting from scratch (kill it
//! mid-run and rerun with `--resume` to see crash recovery). Resume prints
//! `resumed from …`, or says it cold-started when the directory holds no
//! shard checkpoint.
//!
//! ```sh
//! cargo run --release --example streaming_monitor -- \
//!     --store-dir /tmp/monitor-store --checkpoint-every 2
//! # … kill it, then:
//! cargo run --release --example streaming_monitor -- \
//!     --store-dir /tmp/monitor-store --resume
//! ```

use imrdmd_serve::{ServeError, Shard};
use mrdmd_suite::prelude::*;
use std::path::PathBuf;

/// Shard namespace of the monitor's checkpoints.
const SHARD: &str = "monitor";

struct Opts {
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
    resume: bool,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        checkpoint_dir: None,
        checkpoint_every: 1,
        resume: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--store-dir" => {
                o.checkpoint_dir = it.next().map(|dir| PathBuf::from(dir).join("checkpoints"))
            }
            "--checkpoint-every" => {
                o.checkpoint_every = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--checkpoint-every needs an integer")
            }
            "--resume" => o.resume = true,
            other => panic!(
                "unknown flag `{other}` (try --store-dir DIR [--checkpoint-every K] [--resume])"
            ),
        }
    }
    o
}

/// Hot/idle summary of the model's z-scores against a mid-band baseline of
/// the data seen so far.
fn zscore_status(m: &IMrDmd, seen: &Mat, th: &ZThresholds) -> String {
    let mags = row_mode_magnitudes(m.nodes(), &BandFilter::all(), seen.rows());
    let baseline = select_baseline_rows(seen, 40.0, 50.0);
    if baseline.is_empty() {
        return "no baseline band".to_string();
    }
    let z = ZScores::from_baseline(&mags, &baseline);
    let states = z.states(th);
    let hot: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == NodeState::Hot)
        .map(|(i, _)| i)
        .collect();
    let idle = states.iter().filter(|s| **s == NodeState::Idle).count();
    format!(
        "{} hot {:?}{}, {} idle, {:.0}% near baseline",
        hot.len(),
        &hot[..hot.len().min(6)],
        if hot.len() > 6 { "…" } else { "" },
        idle,
        z.fraction_near(th) * 100.0
    )
}

fn main() {
    let opts = parse_opts();
    let n_nodes = 128;
    let total = 3000;
    let chunk = 250;
    let mut machine = theta().scaled(n_nodes);
    machine.series_per_node = 1;
    let scenario = Scenario::sc_log(machine, total, 21);
    println!(
        "streaming {} series in chunks of {chunk} snapshots ({} injected anomalies)",
        scenario.n_series(),
        scenario.anomalies().len()
    );

    let cfg = IMrDmdConfig {
        mr: MrDmdConfig {
            dt: scenario.dt(),
            max_levels: 5,
            max_cycles: 2,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        },
        drift_threshold: Some(50.0),
        keep_history: true,
        auto_refresh: true,
        ..IMrDmdConfig::default()
    };

    // The monitor is one shard: no WAL, checkpoints under its own
    // namespace. Resume restores the newest valid snapshot.
    let policy = GapPolicy::Interpolate;
    let checkpointer = || {
        opts.checkpoint_dir.as_deref().map(|dir| {
            Checkpointer::for_shard(dir, opts.checkpoint_every, SHARD).expect("checkpoint dir")
        })
    };
    let mut shard = if opts.resume {
        let dir = opts
            .checkpoint_dir
            .as_deref()
            .expect("--resume needs --store-dir");
        let rec = Shard::recover(dir, SHARD, &cfg, policy, checkpointer());
        match rec.shard.with_model(|m| (m.n_steps(), m.n_modes())) {
            Ok((steps, modes)) => println!(
                "resumed from {} at snapshot {steps} ({modes} modes)",
                dir.display()
            ),
            Err(ServeError::ShardCorrupt { cause, .. }) => {
                panic!("cannot resume from {}: {cause}", dir.display())
            }
            Err(_) => println!("no checkpoint found — cold start"),
        }
        rec.shard
    } else {
        Shard::new(SHARD, &cfg, policy, checkpointer())
    };
    let start = shard.status().steps;

    // Corrupt the stream the way real facility feeds are corrupted, and
    // keep the clean stream around to regenerate already-seen history.
    let faults = FaultConfig {
        seed: 977,
        drop_prob: 0.001,
        nan_run_prob: 0.3,
        nan_run_max_len: 10,
        sensor_dropout_prob: 0.05,
        duplicate_prob: 0.0,
        pathological_prob: 0.05,
    };
    let stream = FaultInjector::with_start(
        ChunkStream::new(&scenario, start, total, chunk),
        faults,
        start,
    );

    let th = ZThresholds::default();
    let mut seen = scenario.generate(0, start);
    let mut total_gaps = 0usize;

    for (round, batch) in stream.enumerate() {
        let reply = shard.ingest(&batch, None).expect("guarded ingest");
        total_gaps += reply.repairs.gaps;
        // The guard repaired `batch`'s gaps before the fit; replaying the
        // clean generator keeps `seen` an honest baseline for the z-scores.
        let clean_batch = scenario.generate(reply.steps - batch.cols(), reply.steps);
        seen = if seen.cols() == 0 {
            clean_batch
        } else {
            seen.hstack(&clean_batch)
        };

        // Under `auto_refresh`, a round whose drift crossed the threshold
        // has already refitted levels 2..L.
        let drift = reply.report.as_ref().map_or(0.0, |r| r.drift);
        let refreshed = cfg.drift_threshold.is_some_and(|th| drift > th);
        // Refresh z-scores against a mid-band baseline of the data so far.
        let (status, health) = shard
            .with_model(|m| (zscore_status(m, &seen, &th), m.health().summary()))
            .expect("shard is fitted");
        println!(
            "round {:>2}: T = {:>5}, drift {:>9.2e}{}, {:>3} gaps repaired | {} | {}",
            round + 1,
            reply.steps,
            drift,
            if refreshed { " [refreshed]" } else { "" },
            reply.repairs.repaired,
            status,
            health
        );
    }
    let model = shard
        .snapshot()
        .expect("stream produced at least one chunk")
        .model;

    // Final verdict against the injected ground truth.
    println!("\n{total_gaps} corrupted readings repaired in-stream");
    let mags = row_mode_magnitudes(model.nodes(), &BandFilter::all(), seen.rows());
    let baseline = select_baseline_rows(&seen, 40.0, 50.0);
    if !baseline.is_empty() {
        let z = ZScores::from_baseline(&mags, &baseline);
        let mut ranked: Vec<usize> = (0..z.z.len()).collect();
        ranked.sort_by(|&a, &b| z.z[b].partial_cmp(&z.z[a]).unwrap());
        println!("top-5 z-scores: {:?}", &ranked[..5]);
        for a in scenario.anomalies() {
            if let Anomaly::Overheat {
                node,
                start,
                end,
                delta,
            } = a
            {
                let rank = ranked.iter().position(|&n| n == *node).unwrap();
                println!(
                    "injected overheat on node {node} (+{delta:.0} °C over [{start},{end})) → z rank {rank} of {}",
                    z.z.len()
                );
            }
        }
    }
    println!(
        "final model: {} modes, depth {}, {} drift samples, health: {}",
        model.n_modes(),
        model.depth(),
        model.drift_log().len(),
        model.health().summary()
    );
}
