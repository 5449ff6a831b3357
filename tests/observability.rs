//! Observability integration tests (tracing/metrics PR).
//!
//! The metrics registry is process-global, so every test here serialises
//! through one mutex and restores the default observer state (enabled,
//! monotonic clock, counters zeroed, failpoints disarmed) on drop. Tests
//! early-return when the `obs` cargo feature is compiled out — the reading
//! API still exists there, but every counter is pinned at zero.

use mrdmd_suite::core::obs;
use mrdmd_suite::core::obs::{HistogramEntry, MetricEntry};
use mrdmd_suite::linalg::failpoint;
use mrdmd_suite::prelude::*;
use mrdmd_suite::telemetry::write_snapshots_csv;
use std::collections::HashSet;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

const TAU: f64 = std::f64::consts::TAU;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Serialises a test against the process-global metrics/failpoint/clock
/// state and restores the defaults on drop (even across a panic).
struct ObsGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ObsGuard {
    fn acquire() -> ObsGuard {
        let g = OBS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        failpoint::disarm_all();
        Observer::enabled().install();
        obs::reset();
        ObsGuard(g)
    }
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        failpoint::disarm_all();
        Observer::enabled().install();
        obs::reset();
    }
}

/// Deterministic multiscale telemetry-like signal.
fn signal(p: usize, t: usize, dt: f64) -> Mat {
    Mat::from_fn(p, t, |i, j| {
        let x = i as f64 / p as f64;
        let tt = j as f64 * dt;
        50.0 + 4.0 * (TAU * tt / 9000.0 + 2.0 * x).sin()
            + 1.5 * (TAU * tt / 900.0 + 5.0 * x).cos()
            + 0.4 * (TAU * tt / 90.0 + 9.0 * x).sin()
    })
}

fn cfg(dt: f64, n_threads: usize) -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt,
            max_levels: 4,
            max_cycles: 2,
            rank: RankSelection::Fixed(6),
            min_window: 16,
            n_threads,
            ..MrDmdConfig::default()
        },
        isvd_max_rank: 24,
        ..IMrDmdConfig::default()
    }
}

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("imrdmd-observability");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Under the fake clock (zero step) the deterministic metric subset —
/// every counter and gauge except the scheduler-dependent `pool.*` family —
/// is identical at every thread count, and the round histogram observes
/// the same number of zero-duration spans.
#[test]
fn deterministic_metrics_across_thread_counts() {
    let _g = ObsGuard::acquire();
    if !obs::is_enabled() {
        return;
    }
    let dt = 1.0;
    let data = signal(8, 512, dt);
    let mut reference: Option<Vec<(String, f64)>> = None;
    for &n in &[1usize, 2, 4, 8] {
        obs::reset();
        Observer::enabled().with_fake_clock(0, 0).install();
        let c = cfg(dt, n);
        let mut m = IMrDmd::fit(&data.cols_range(0, 256), &c);
        for k in 0..4 {
            m.partial_fit(&data.cols_range(256 + 64 * k, 256 + 64 * (k + 1)));
        }
        let snap = MetricsSnapshot::capture();
        assert_eq!(snap.counter("round.count"), Some(4), "threads {n}");
        assert!(snap.counter("gemm.calls").unwrap() > 0, "threads {n}");
        assert!(snap.counter("isvd.updates").unwrap() > 0, "threads {n}");
        // Zero-step fake clock: the spans fired but observed no time.
        let h = snap.histogram("round.ns").unwrap();
        assert_eq!((h.count, h.sum_ns), (4, 0), "threads {n}");
        let subset = snap.deterministic_subset();
        assert!(subset.iter().all(|(name, _)| !name.starts_with("pool.")));
        match &reference {
            None => reference = Some(subset),
            Some(r) => assert_eq!(r, &subset, "thread count {n} diverged"),
        }
    }
    Observer::enabled().install();
}

/// The ingest counters agree exactly with the fault injector's ground-truth
/// event log: every corrupted cell is one repaired cell, nothing more.
#[test]
fn ingest_counters_match_fault_injector_ground_truth() {
    let _g = ObsGuard::acquire();
    if !obs::is_enabled() {
        return;
    }
    let n_nodes = 16;
    let total = 800;
    let chunk = 100;
    let mut machine = theta().scaled(n_nodes);
    machine.series_per_node = 1;
    let scenario = Scenario::sc_log(machine, total, 23);
    let faults = FaultConfig {
        seed: 515,
        drop_prob: 0.004,
        nan_run_prob: 0.6,
        nan_run_max_len: 12,
        sensor_dropout_prob: 0.25,
        duplicate_prob: 0.0,
        pathological_prob: 0.0,
    };
    let mut stream = FaultInjector::new(ChunkStream::new(&scenario, 0, total, chunk), faults);
    let batches: Vec<Mat> = (&mut stream).collect();

    // Ground truth two ways: the union of event-corrupted cells, and the
    // non-finite cells actually present in the delivered batches.
    let mut corrupted: HashSet<(usize, usize)> = HashSet::new();
    for k in 0..batches.len() {
        for (row, col) in stream.corrupted_cells(k * chunk, chunk) {
            corrupted.insert((row, k * chunk + col));
        }
    }
    let nan_cells: usize = batches
        .iter()
        .map(|b| b.as_slice().iter().filter(|v| !v.is_finite()).count())
        .sum();
    assert_eq!(corrupted.len(), nan_cells, "event log covers every hole");
    assert!(
        nan_cells > 0,
        "test premise: the injector corrupted the stream"
    );

    obs::reset();
    let c = cfg(scenario.dt(), 0);
    let mut guard = IngestGuard::new(GapPolicy::HoldLast, n_nodes);
    let (clean, _) = guard.repair(&batches[0]).unwrap();
    let mut model = IMrDmd::fit(clean.as_ref().unwrap_or(&batches[0]), &c);
    let mut reported = 0usize;
    for b in &batches[1..] {
        let report = model.try_partial_fit(b, &mut guard).unwrap();
        reported += report.repairs.repaired;
    }
    let snap = MetricsSnapshot::capture();
    assert_eq!(snap.counter("ingest.gaps"), Some(nan_cells as u64));
    assert_eq!(
        snap.counter("ingest.repaired_cells"),
        Some(nan_cells as u64)
    );
    assert_eq!(snap.counter("round.count"), Some(batches.len() as u64 - 1));
    // The per-round reports and the global counter tell one story.
    let first_batch_repairs = nan_cells - reported;
    assert!(first_batch_repairs <= nan_cells);
    assert_eq!(snap.counter("ingest.masked_rows"), Some(0));
}

/// A forced eigensolver non-convergence models a fully exhausted escalation
/// ladder: arming the failpoint `k` times yields exactly `k` escalations
/// and `k` failures on the counters.
#[test]
fn forced_escalations_match_armed_count() {
    let _g = ObsGuard::acquire();
    if !obs::is_enabled() {
        return;
    }
    let dt = 1.0;
    let data = signal(8, 640, dt);
    let c = cfg(dt, 1);
    let mut m = IMrDmd::fit(&data.cols_range(0, 512), &c);
    obs::reset(); // count only the armed window
    failpoint::arm_eig_nonconvergence(3);
    let mut guard = IngestGuard::new(GapPolicy::HoldLast, 8);
    let report = m
        .try_partial_fit(&data.cols_range(512, 640), &mut guard)
        .expect("degraded operation is not an error");
    failpoint::disarm_all();
    assert!(report.new_faults > 0, "{report:?}");
    let snap = MetricsSnapshot::capture();
    assert_eq!(snap.counter("eig.escalations"), Some(3));
    assert_eq!(snap.counter("eig.failures"), Some(3));
    assert_eq!(snap.counter("fit.faults"), Some(report.new_faults as u64));
    // The health gauge mirrors the post-round snapshot in the report.
    assert_eq!(snap.gauge("health.coverage"), Some(report.health.coverage));
}

/// Golden test of the Prometheus text exposition renderer on a hand-built
/// snapshot: exact bytes, cumulative buckets, `+Inf`, `_sum`/`_count`.
#[test]
fn prometheus_render_golden() {
    let snap = MetricsSnapshot {
        metrics: vec![
            MetricEntry {
                name: "gemm.calls".into(),
                kind: "counter".into(),
                help: "Matrix-multiply kernel invocations".into(),
                counter: Some(3),
                gauge: None,
                histogram: None,
            },
            MetricEntry {
                name: "pool.threads".into(),
                kind: "gauge".into(),
                help: "Worker threads the pool is sized to".into(),
                counter: None,
                gauge: Some(4.0),
                histogram: None,
            },
            MetricEntry {
                name: "gemm.ns".into(),
                kind: "histogram".into(),
                help: "Wall time per matrix multiply".into(),
                counter: None,
                gauge: None,
                histogram: Some(HistogramEntry {
                    bounds_ns: vec![1_000, 4_000],
                    counts: vec![2, 1, 1],
                    count: 4,
                    sum_ns: 6_000,
                }),
            },
        ],
    };
    let expected = "\
# HELP gemm_calls Matrix-multiply kernel invocations
# TYPE gemm_calls counter
gemm_calls 3
# HELP pool_threads Worker threads the pool is sized to
# TYPE pool_threads gauge
pool_threads 4
# HELP gemm_ns Wall time per matrix multiply
# TYPE gemm_ns histogram
gemm_ns_bucket{le=\"1000\"} 2
gemm_ns_bucket{le=\"4000\"} 3
gemm_ns_bucket{le=\"+Inf\"} 4
gemm_ns_sum 6000
gemm_ns_count 4
";
    assert_eq!(snap.to_prometheus(), expected);
    // And the JSON round-trip preserves the snapshot exactly.
    let back: MetricsSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
    assert_eq!(back, snap);
}

/// `Observer::disabled()` records nothing and perturbs nothing: the fit is
/// bitwise-identical to the observed run at every thread count.
#[test]
fn disabled_observer_is_bitwise_identical_and_silent() {
    let _g = ObsGuard::acquire();
    let dt = 1.0;
    let data = signal(10, 384, dt);
    for &n in &[1usize, 2, 4, 8] {
        let run = |observe: bool| -> Vec<u64> {
            obs::reset();
            if observe {
                Observer::enabled().install();
            } else {
                Observer::disabled().install();
            }
            let c = cfg(dt, n);
            let mut m = IMrDmd::fit(&data.cols_range(0, 256), &c);
            m.partial_fit(&data.cols_range(256, 384));
            bits(&m.reconstruct())
        };
        let observed = run(true);
        let silent = run(false);
        assert_eq!(observed, silent, "observer perturbed the numerics at {n}");
        // The disabled run left every counter untouched.
        let snap = MetricsSnapshot::capture();
        assert_eq!(snap.counter("gemm.calls"), Some(0), "threads {n}");
        assert_eq!(snap.counter("round.count"), Some(0), "threads {n}");
        Observer::enabled().install();
    }
}

/// The acceptance e2e: `imrdmd-cli stream --metrics-every N` over a
/// fault-injected synthetic stream emits JSON-lines whose
/// `ingest.repaired_cells` and `eig.escalations` counters exactly match the
/// fault injector's ground-truth event log (and the armed failpoint count).
#[test]
fn cli_stream_metrics_lines_match_ground_truth() {
    let _g = ObsGuard::acquire();
    if !obs::is_enabled() {
        return;
    }
    let n_nodes = 12;
    let total = 600;
    let chunk = 100;
    let mut machine = theta().scaled(n_nodes);
    machine.series_per_node = 1;
    let scenario = Scenario::sc_log(machine, total, 17);
    let faults = FaultConfig {
        seed: 99,
        drop_prob: 0.004,
        nan_run_prob: 0.5,
        nan_run_max_len: 10,
        sensor_dropout_prob: 0.2,
        duplicate_prob: 0.0,
        pathological_prob: 0.0,
    };
    let mut stream = FaultInjector::new(ChunkStream::new(&scenario, 0, total, chunk), faults);
    let batches: Vec<Mat> = (&mut stream).collect();
    let mut data = batches[0].clone();
    for b in &batches[1..] {
        data = data.hstack(b);
    }

    // Ground truth from the injector's event log, deduplicated.
    let mut corrupted: HashSet<(usize, usize)> = HashSet::new();
    for k in 0..batches.len() {
        for (row, col) in stream.corrupted_cells(k * chunk, chunk) {
            corrupted.insert((row, k * chunk + col));
        }
    }
    let nan_cells = data.as_slice().iter().filter(|v| !v.is_finite()).count();
    assert_eq!(corrupted.len(), nan_cells);
    assert!(nan_cells > 0, "test premise: the stream is corrupted");

    let csv = tmp("cli_metrics.csv");
    let model = tmp("cli_metrics.json");
    {
        let mut f = std::io::BufWriter::new(fs::File::create(&csv).unwrap());
        write_snapshots_csv(&mut f, &data, 0).unwrap();
        use std::io::Write as _;
        f.flush().unwrap();
    }

    // Two forced eig non-convergences = the escalation ground truth.
    failpoint::arm_eig_nonconvergence(2);
    let argv: Vec<String> = format!(
        "stream --input {} --dt {} --chunk {chunk} --levels 4 --gap-policy hold \
         --metrics-every 2 --model {}",
        csv.display(),
        scenario.dt(),
        model.display()
    )
    .split_whitespace()
    .map(String::from)
    .collect();
    let out = imrdmd_cli::run(&imrdmd_cli::parse_args(&argv).unwrap()).unwrap();
    failpoint::disarm_all();

    let lines: Vec<MetricsLine> = out
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| serde_json::from_str(l).unwrap())
        .collect();
    assert_eq!(lines.len(), 3, "6 chunks, a line every 2nd:\n{out}");
    let last = lines.last().unwrap();
    assert_eq!(last.step, total);
    assert_eq!(last.round, total / chunk);
    assert_eq!(
        last.snapshot.counter("ingest.repaired_cells"),
        Some(nan_cells as u64),
        "counter vs injector ground truth"
    );
    assert_eq!(last.snapshot.counter("ingest.gaps"), Some(nan_cells as u64));
    assert_eq!(last.snapshot.counter("eig.escalations"), Some(2));
    assert_eq!(last.snapshot.counter("eig.failures"), Some(2));
    // Counters are monotone across emissions.
    for w in lines.windows(2) {
        assert!(
            w[0].snapshot.counter("ingest.repaired_cells")
                <= w[1].snapshot.counter("ingest.repaired_cells")
        );
        assert!(w[0].snapshot.counter("gemm.calls") <= w[1].snapshot.counter("gemm.calls"));
    }
}

/// The catalogue `GET /metrics` exposes — linalg kernels, core pipeline,
/// then `serve.*` — pinned series by series: a reordered, renamed, retyped
/// or dropped metric fails here, not on an operator's dashboard.
#[test]
fn metric_catalogue_matches_fixture() {
    let want: Vec<&str> = include_str!("fixtures/metrics_catalogue.txt")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let got: Vec<String> = imrdmd_serve::obs::fleet_snapshot()
        .metrics
        .iter()
        .map(|m| format!("{} {}", m.name, m.kind))
        .collect();
    assert_eq!(got, want, "catalogue drifted:\n{}", got.join("\n"));
}
