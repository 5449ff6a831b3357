//! Bitwise parity of the telemetry generator against recorded digests.
//!
//! Every experiment, bench and CLI run reads `hpc_telemetry::Scenario`, so
//! its output is pinned bit for bit: each case below generates one window
//! and folds the matrix shape plus the IEEE-754 bits of every reading into
//! one FNV-1a 64-bit digest. `tests/fixtures/generator_digests.txt` holds
//! one `case digest` line per case. The cases cover the `paper_window`
//! bench's shape, every SC-log sensor kind, the GPU profile, hand-built
//! jobs and anomalies that hit the cool-down and the envelope cutoff,
//! unsorted and repeated row subsets, and one-column and empty windows.
//!
//! On a mismatch the test prints the freshly computed fixture; a change
//! that alters the signal model on purpose regenerates the file from that
//! output.

use mrdmd_suite::prelude::*;

const FIXTURE: &str = "tests/fixtures/generator_digests.txt";

/// FNV-1a, 64-bit, over the shape and the f64 bits of a matrix.
fn digest(m: &Mat) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: [u8; 8]| {
        for x in bytes {
            h ^= u64::from(x);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat((m.rows() as u64).to_le_bytes());
    eat((m.cols() as u64).to_le_bytes());
    for v in m.as_slice() {
        eat(v.to_bits().to_le_bytes());
    }
    h
}

/// The `paper_window` bench's machine (Theta at 1000 nodes, one series per
/// node) over a 400-step cut of its timeline.
fn paper_window_cut() -> Mat {
    let mut machine = theta().scaled(1000);
    machine.series_per_node = 1;
    Scenario::sc_log(machine, 18_000, 1).generate(2000, 2400)
}

/// Four channels per node: temperature, temperature, voltage, fan speed.
fn theta_four_channels() -> Mat {
    Scenario::sc_log(theta().scaled(64), 3000, 5).generate(1234, 1434)
}

/// Per-GPU burst harmonics on a Polaris machine.
fn polaris_gpu() -> Mat {
    Scenario::gpu_metrics(polaris().scaled(40), 4000, 9).generate(700, 950)
}

/// Hand-built jobs and anomalies: a job that ends inside the window (its
/// cool-down falls below the 1e-3 envelope cutoff), one that starts inside
/// it, a stall overlapping a job, an overheat, a fan degradation, and an
/// anomaly on a node the machine does not have.
fn hand_built() -> Scenario {
    let job = |id, first_node, n_nodes, start_step, end_step, intensity, period_s| Job {
        id,
        project: "p".into(),
        first_node,
        n_nodes,
        start_step,
        end_step,
        intensity,
        period_s,
    };
    let jobs = JobLog::new(
        vec![
            job(0, 0, 6, 50, 180, 15.0, 300.0),
            job(1, 4, 8, 260, 900, 11.0, 520.0),
            job(2, 10, 3, 0, 120, 9.0, 240.0),
        ],
        16,
    );
    let anomalies = vec![
        Anomaly::Overheat {
            node: 3,
            start: 120,
            end: 300,
            delta: 12.0,
        },
        Anomaly::Stall {
            node: 2,
            start: 150,
            end: 250,
        },
        Anomaly::Stall {
            node: 5,
            start: 280,
            end: 330,
        },
        Anomaly::FanDegradation {
            node: 1,
            start: 200,
            slope: 0.008,
        },
        Anomaly::Overheat {
            node: 40,
            start: 0,
            end: 1000,
            delta: 9.0,
        },
    ];
    Scenario::new(theta().scaled(16), Profile::ScLog, 21, jobs, anomalies)
}

fn hand_built_window() -> Mat {
    hand_built().generate(100, 400)
}

/// The same scenario under the GPU profile (per-channel job heat).
fn hand_built_gpu() -> Mat {
    let s = hand_built();
    Scenario::new(
        polaris().scaled(16),
        Profile::GpuMetrics,
        21,
        s.job_log().clone(),
        s.anomalies().to_vec(),
    )
    .generate(100, 400)
}

/// An unsorted row subset with a repeated row.
fn row_subset() -> Mat {
    let s = Scenario::sc_log(theta().scaled(64), 3000, 5);
    s.generate_rows(&[201, 13, 2, 7, 2, 255, 0, 130], 500, 820)
}

fn one_column() -> Mat {
    Scenario::sc_log(theta().scaled(64), 3000, 5).generate(1500, 1501)
}

fn empty_window() -> Mat {
    Scenario::sc_log(theta().scaled(64), 3000, 5).generate(1500, 1500)
}

/// A named case and the window it generates.
type Case = (&'static str, fn() -> Mat);

fn digests() -> String {
    let cases: [Case; 9] = [
        ("paper_window_cut", paper_window_cut),
        ("theta_four_channels", theta_four_channels),
        ("polaris_gpu", polaris_gpu),
        ("hand_built", hand_built_window),
        ("hand_built_gpu", hand_built_gpu),
        ("row_subset", row_subset),
        ("one_column", one_column),
        ("empty_window", empty_window),
        ("empty_rows", || {
            Scenario::sc_log(theta().scaled(64), 3000, 5).generate_rows(&[], 10, 90)
        }),
    ];
    cases
        .iter()
        .map(|(name, f)| format!("{name} {:016x}\n", digest(&f())))
        .collect()
}

#[test]
fn generator_output_matches_recorded_digests() {
    let got = digests();
    let path = format!("{}/{FIXTURE}", env!("CARGO_MANIFEST_DIR"));
    let want: String = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        got == want,
        "generator digests diverged from {FIXTURE}\n--- recorded ---\n{want}--- computed ---\n{got}"
    );
}
