//! Fleet health check: the case-study-2 workflow — a whole machine over a
//! shift, visually aligning environment-log dynamics with job and hardware
//! logs.
//!
//! Produces two rack-view SVGs (early vs late window, per-window baselines)
//! with persistent hardware-error nodes outlined, plus a job-project usage
//! summary, in a temp directory.
//!
//! ```sh
//! cargo run --release --example fleet_healthcheck
//! ```

use mrdmd_suite::prelude::*;

fn main() {
    // A quarter-scale Theta, one temperature channel per node, 8 hours at
    // 20 s cadence.
    let n_nodes = 512;
    let total = 1440;
    let half = total / 2;
    let mut machine = theta().scaled(n_nodes);
    machine.series_per_node = 1;
    let scenario = Scenario::sc_log(machine.clone(), total, 33);
    let data = scenario.generate(0, total);

    // Fit incrementally: first half, then the second half in one update.
    let cfg = IMrDmdConfig {
        mr: MrDmdConfig {
            dt: scenario.dt(),
            max_levels: 6,
            max_cycles: 2,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    };
    let mut model = IMrDmd::fit(&data.cols_range(0, half), &cfg);
    model.partial_fit(&data.cols_range(half, total));
    println!(
        "fitted {} series × {} snapshots: {} modes, depth {}",
        data.rows(),
        data.cols(),
        model.n_modes(),
        model.depth()
    );

    // Hardware log, correlated with the injected anomalies.
    let hw = HwLog::synthesize(n_nodes, total, scenario.anomalies(), 1.0, 33);
    let persistent = hw.persistent_nodes(0, total);
    println!(
        "hardware log: {} events, {} nodes persistently failing",
        hw.events.len(),
        persistent.len()
    );

    // Job log: which projects used the machine.
    for project in scenario.job_log().projects() {
        let nodes = scenario.job_log().project_nodes(&project);
        println!("  project {project:<14} used {} nodes", nodes.len());
    }

    // Per-window z-scores with window-relative baselines (the paper chooses
    // 45–60 °C for the hot window and 30–45 °C for the cool one; here we use
    // data quantiles so the bands adapt to the synthetic regime).
    let out_dir = std::env::temp_dir().join("fleet_healthcheck");
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let th = ZThresholds::default();
    for (name, lo, hi, file) in [
        ("first half", 0, half, "window_a.svg"),
        ("second half", half, total, "window_b.svg"),
    ] {
        let window = data.cols_range(lo, hi);
        // Baseline band: the middle 40% of window means.
        let mut means: Vec<f64> = (0..window.rows())
            .map(|i| window.row(i).iter().sum::<f64>() / window.cols() as f64)
            .collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let band = (means[means.len() * 3 / 10], means[means.len() * 7 / 10]);
        let mags = row_mode_magnitudes(model.nodes(), &BandFilter::all(), window.rows());
        let baseline = select_baseline_rows(&window, band.0, band.1);
        let z = ZScores::from_baseline(&mags, &baseline);
        let states = z.states(&th);
        let hot = states.iter().filter(|s| **s == NodeState::Hot).count();
        let idle = states.iter().filter(|s| **s == NodeState::Idle).count();
        println!(
            "{name}: baseline band {:.1}–{:.1} °C → {hot} hot, {idle} idle, {:.0}% near baseline",
            band.0,
            band.1,
            z.fraction_near(&th) * 100.0
        );
        let view = RackView::new(&machine)
            .with_values(&z.z)
            .with_outlined(persistent.iter().copied())
            .with_title(format!("fleet healthcheck — {name}"));
        print!("{}", view.to_ascii());
        std::fs::write(out_dir.join(file), view.to_svg()).expect("write SVG");
    }
    println!("rack views written to {}", out_dir.display());

    // Spectrum shift between the two windows (the paper's Fig. 7 effect).
    let m1 = MrDmd::fit(&data.cols_range(0, half), &cfg.mr);
    let m2 = MrDmd::fit(&data.cols_range(half, total), &cfg.mr);
    let weighted_freq = |m: &MrDmd| {
        let pts = mode_spectrum(&m.nodes);
        let total: f64 = pts.iter().map(|p| p.power).sum();
        pts.iter().map(|p| p.frequency_hz * p.power).sum::<f64>() / total.max(1e-12)
    };
    println!(
        "power-weighted mean frequency: first half {:.3e} Hz, second half {:.3e} Hz",
        weighted_freq(&m1),
        weighted_freq(&m2)
    );
}
