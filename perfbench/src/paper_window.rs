//! `paper_window`: the paper's Table I shape. One SC-Log tree of 1000
//! series at 6 levels is fitted on 2000 steps, then absorbs 16 partial fits
//! of 1000 steps each (stream age 2k → 18k); the final tree is archived at
//! q16 and f64 and fixed, seeded ranges are replayed from both.
//!
//! A pass restarts from the fitted tree, so every pass sees the same stream
//! ages; passes repeat until `--seconds` have elapsed and at least
//! [`MIN_FITS`] partial fits were timed.

use std::path::Path;
use std::time::Instant;

use hpc_linalg::Mat;
use hpc_telemetry::{theta, Scenario};
use imrdmd::archive::{write_archive, ArchiveReader, QuantTier};
use imrdmd::{IMrDmd, IMrDmdConfig, MrDmdConfig, RankSelection};

use crate::stats::{age_ratio, mb_per_s, median, per_round, self_split};
use crate::trace::{capture, ObsDelta, SpanLog};
use crate::{kernel_layers, op_latency, overhead, repeated_setup, Args, Report, SplitMix};

/// Telemetry series (one per Theta node).
const SERIES: usize = 1000;
/// Tree depth of the SC-Log configuration.
const LEVELS: usize = 6;
/// Steps in the initial fit.
const FIT_STEPS: usize = 2000;
/// Steps per partial fit.
const BATCH: usize = 1000;
/// Partial fits per pass.
const ROUNDS: usize = 16;
/// Latency figures are the better of this many consecutive slices of the
/// timed partial fits (see `stats::low_slice`).
const SLICES: usize = 2;
/// Fewest partial fits a run times: every slice carries a p90 with ten
/// samples beyond it.
const MIN_FITS: usize = 112 * SLICES;
/// Seeded replay ranges per pass, and their length in steps.
const RANGES: usize = 4;
const RANGE_LEN: usize = 200;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Window {
    initial: IMrDmd,
    batches: Vec<Mat>,
}

fn setup(seed: u64) -> Window {
    let mut machine = theta().scaled(SERIES);
    machine.series_per_node = 1;
    let sc = Scenario::sc_log(machine, FIT_STEPS + ROUNDS * BATCH, seed);
    let cfg = IMrDmdConfig {
        mr: MrDmdConfig {
            dt: sc.dt(),
            max_levels: LEVELS,
            max_cycles: 2,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    };
    let batches = (0..ROUNDS)
        .map(|r| sc.generate(FIT_STEPS + r * BATCH, FIT_STEPS + (r + 1) * BATCH))
        .collect();
    Window {
        initial: IMrDmd::fit(&sc.generate(0, FIT_STEPS), &cfg),
        batches,
    }
}

fn modes_finite(model: &IMrDmd) -> bool {
    model.nodes().all(|n| {
        n.lambdas.iter().all(|v| v.is_finite())
            && n.omegas.iter().all(|v| v.is_finite())
            && n.amplitudes.iter().all(|v| v.is_finite())
            && n.modes.as_slice().iter().all(|v| v.is_finite())
    })
}

/// Archive timings of one pass, in seconds, plus check outcomes.
#[derive(Default)]
struct ArchivePass {
    write_s: f64,
    replay_s: f64,
    reconstruct_s: f64,
    replay_bytes: f64,
    blocks_read: f64,
    blocks_total: f64,
    q16_ratio: f64,
    /// `(ok, what)` per check.
    checks: Vec<(bool, String)>,
}

fn archive_pass(
    model: &IMrDmd,
    dir: &Path,
    ranges: &[(usize, usize)],
    log: &mut Option<&mut SpanLog>,
    id: u64,
) -> Result<ArchivePass, String> {
    let mut out = ArchivePass::default();
    let q16_path = dir.join("window.q16.arch");
    let f64_path = dir.join("window.f64.arch");
    let start = Instant::now();
    let q16_info = write_archive(model, &q16_path, QuantTier::Q16).map_err(|e| e.to_string())?;
    let end = Instant::now();
    out.write_s = (end - start).as_secs_f64();
    if let Some(l) = log.as_mut() {
        l.record("archive.write_archive", id, start, end);
    }
    write_archive(model, &f64_path, QuantTier::F64).map_err(|e| e.to_string())?;
    let raw_bytes = (model.n_rows() * model.n_steps() * 8) as f64;
    out.q16_ratio = raw_bytes / q16_info.bytes as f64;

    let mut q16 = ArchiveReader::open(&q16_path).map_err(|e| e.to_string())?;
    let mut f64r = ArchiveReader::open(&f64_path).map_err(|e| e.to_string())?;
    let bound = QuantTier::Q16.rel_error_bound();
    for &(t0, t1) in ranges {
        let blocks_before = q16.blocks_read();
        let start = Instant::now();
        let approx = q16.replay(t0, t1).map_err(|e| e.to_string())?;
        let mid = Instant::now();
        let exact = model.reconstruct_range(t0, t1);
        let end = Instant::now();
        out.replay_s += (mid - start).as_secs_f64();
        out.reconstruct_s += (end - mid).as_secs_f64();
        out.replay_bytes += (approx.rows() * approx.cols() * 8) as f64;
        out.blocks_read += (q16.blocks_read() - blocks_before) as f64;
        out.blocks_total += q16.index().len() as f64;
        if let Some(l) = log.as_mut() {
            l.record("archive.replay", id, start, mid);
            l.record("imrdmd.reconstruct_range", id, mid, end);
        }

        let lossless = f64r.replay(t0, t1).map_err(|e| e.to_string())?;
        let bitwise = lossless.shape() == exact.shape()
            && lossless
                .as_slice()
                .iter()
                .zip(exact.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        out.checks.push((
            bitwise,
            format!("f64 replay of [{t0}, {t1}) is not bitwise reconstruct_range"),
        ));
        let norm = exact
            .as_slice()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-300);
        let err = approx
            .as_slice()
            .iter()
            .zip(exact.as_slice())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
            / norm;
        out.checks.push((
            approx.shape() == exact.shape() && err <= bound,
            format!("q16 replay of [{t0}, {t1}): relative error {err:e} above {bound:e}"),
        ));
    }
    Ok(out)
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let (window, setup_s) = repeated_setup(SETUPS, || setup(args.seed), drop);
    let mut report = Report::default();
    report.set("setup_s", setup_s);

    let n_steps = FIT_STEPS + ROUNDS * BATCH;
    let mut rng = SplitMix::new(args.seed, 0xA7C1);
    let ranges: Vec<(usize, usize)> = (0..RANGES)
        .map(|_| {
            let t0 = rng.below(n_steps - RANGE_LEN);
            (t0, t0 + RANGE_LEN)
        })
        .collect();

    let origin = Instant::now();
    let mut log = SpanLog::new(origin);
    let mut obs = ObsDelta::default();
    let (mut all_ms, mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut ratios = Vec::new();
    let mut arch = ArchivePass::default();
    let mut state_growth = 0.0;
    let mut n_pass = 0u64;
    while all_ms.len() < MIN_FITS || origin.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && n_pass.is_multiple_of(2);
        let mut model = window.initial.clone();
        let mut fit_ms = Vec::with_capacity(ROUNDS);
        let mut first_bytes = 0.0;
        // The obs delta spans the whole stream: between partial fits only
        // the benchmark's own checks run, and they call no kernel.
        let before = traced.then(capture);
        for (r, batch) in window.batches.iter().enumerate() {
            let start = Instant::now();
            model.partial_fit(batch);
            let end = Instant::now();
            fit_ms.push((end - start).as_secs_f64() * 1e3);
            if traced {
                log.record("imrdmd.partial_fit", n_pass, start, end);
            }
            report.check(
                modes_finite(&model),
                &format!("round {r}: non-finite modes"),
            );
            if traced && n_pass == 0 && r == 0 {
                first_bytes = serde_json::to_string(&model).map_or(0, |s| s.len()) as f64;
            }
        }
        if let Some(before) = &before {
            obs.add(before, &capture());
        }
        if traced && n_pass == 0 {
            let last_bytes = serde_json::to_string(&model).map_or(0, |s| s.len()) as f64;
            state_growth = per_round(last_bytes, first_bytes);
        }
        let mut spans = traced.then_some(&mut log);
        let a = archive_pass(&model, &args.scratch, &ranges, &mut spans, n_pass)?;
        for (ok, what) in &a.checks {
            report.check(*ok, what);
        }
        arch.write_s += a.write_s;
        arch.replay_s += a.replay_s;
        arch.reconstruct_s += a.reconstruct_s;
        arch.replay_bytes += a.replay_bytes;
        arch.blocks_read += a.blocks_read;
        arch.blocks_total += a.blocks_total;
        arch.q16_ratio = a.q16_ratio;

        ratios.extend(age_ratio(&fit_ms));
        if traced {
            traced_ms.extend_from_slice(&fit_ms);
        } else {
            untraced_ms.extend_from_slice(&fit_ms);
        }
        all_ms.extend(fit_ms);
        n_pass += 1;
    }

    let best_s = op_latency(&mut report, &all_ms, SLICES);
    report.set(
        "ops_per_s",
        per_round((all_ms.len() / SLICES) as f64, best_s),
    );
    report.set("op_age_ratio", median(&ratios).unwrap_or(0.0));

    if args.trace {
        let fits = traced_ms.len() as f64;
        kernel_layers(&mut report, &obs, fits, traced_ms.iter().sum::<f64>() * 1e6);
        report.set("imrdmd.state_bytes_growth", state_growth);
        let n_ranges = (n_pass as usize * RANGES) as f64;
        let split = self_split(arch.replay_s, &[arch.reconstruct_s]);
        report.set(
            "archive.write_ms",
            per_round(arch.write_s * 1e3, n_pass as f64),
        );
        report.set(
            "archive.replay_ms",
            per_round(arch.replay_s * 1e3, n_ranges),
        );
        report.set(
            "archive.reconstruct_ms",
            per_round(arch.reconstruct_s * 1e3, n_ranges),
        );
        report.set(
            "archive.decode_ms",
            per_round(split.self_time * 1e3, n_ranges),
        );
        report.set(
            "archive.blocks_read_ratio",
            per_round(arch.blocks_read, arch.blocks_total),
        );
        report.set("archive.q16_ratio", arch.q16_ratio);
        report.set(
            "archive.replay_mb_s",
            mb_per_s(arch.replay_bytes, arch.replay_s),
        );
        overhead(
            &mut report,
            &traced_ms,
            &untraced_ms,
            log.count("imrdmd.partial_fit"),
        );
        eprintln!("{}", log.summary());
    }
    eprintln!(
        "paper_window: {n_pass} passes x {ROUNDS} partial fits ({SERIES} series, {LEVELS} levels), \
         replay {:.1} MB/s, setup {setup_s:.3} s",
        mb_per_s(arch.replay_bytes, arch.replay_s)
    );
    Ok(report)
}
