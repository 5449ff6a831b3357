//! Multifidelity alignment: the paper's holistic pipeline end to end.
//!
//! The conclusion of the paper emphasises consolidating *diverse* log types:
//! environment logs (multiple sensor kinds), job logs, and hardware error
//! logs, visually aligned in one interface. This example runs I-mrDMD on the
//! temperature channels, cross-checks the flagged nodes against the voltage
//! and fan-speed channels, the job log, and the hardware log, and assembles
//! a self-contained HTML report.
//!
//! ```sh
//! cargo run --release --example multifidelity_alignment
//! ```

use mrdmd_suite::prelude::*;
use mrdmd_suite::viz::{heatmap_svg, HeatmapConfig, HtmlReport};

fn main() {
    // 96 nodes, 5 channels each (temp, temp, voltage, fan, power), 1,500
    // snapshots at 20 s — about 8 hours of telemetry.
    let n_nodes = 96;
    let total = 1500;
    let mut machine = theta().scaled(n_nodes);
    machine.series_per_node = 5;
    let scenario = Scenario::sc_log(machine, total, 101);
    println!(
        "{} series ({} nodes × {} channels), {} snapshots",
        scenario.n_series(),
        n_nodes,
        5,
        total
    );

    // Decompose the temperature channels only (the paper's analysis target).
    let temp_rows = scenario.series_of_kind(SensorKind::Temperature);
    let temp = scenario.generate_rows(&temp_rows, 0, total);
    let cfg = IMrDmdConfig {
        mr: MrDmdConfig {
            dt: scenario.dt(),
            max_levels: 5,
            max_cycles: 2,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    };
    let mut model = IMrDmd::fit(&temp.cols_range(0, 1000), &cfg);
    model.partial_fit(&temp.cols_range(1000, total));
    println!(
        "I-mrDMD: {} modes, depth {}",
        model.n_modes(),
        model.depth()
    );

    // Per-node z-scores (two temperature channels per node → average).
    let mags = row_mode_magnitudes(model.nodes(), &BandFilter::all(), temp.rows());
    let mut idx: Vec<usize> = (0..mags.len()).collect();
    idx.sort_by(|&a, &b| mags[a].partial_cmp(&mags[b]).unwrap());
    let baseline = idx[mags.len() / 4..3 * mags.len() / 4].to_vec();
    let z = ZScores::from_baseline(&mags, &baseline);
    let node_z: Vec<f64> = (0..n_nodes)
        .map(|n| {
            // temp channels of node n are rows 2n and 2n+1 in temp-row order.
            (z.z[2 * n] + z.z[2 * n + 1]) / 2.0
        })
        .collect();
    let th = ZThresholds::default();
    let flagged: Vec<usize> = node_z
        .iter()
        .enumerate()
        .filter(|(_, &zv)| zv > th.high)
        .map(|(n, _)| n)
        .collect();
    println!(
        "flagged {} nodes with z > {}: {:?}",
        flagged.len(),
        th.high,
        &flagged[..flagged.len().min(8)]
    );

    // Cross-check each flagged node against the other fidelities.
    let hw = HwLog::synthesize(n_nodes, total, scenario.anomalies(), 1.0, 101);
    let hw_nodes = hw.nodes_with_any(0, total);
    let volt_rows = scenario.series_of_kind(SensorKind::Voltage);
    let fan_rows = scenario.series_of_kind(SensorKind::FanSpeed);
    let volts = scenario.generate_rows(&volt_rows, 0, total);
    let fans = scenario.generate_rows(&fan_rows, 0, total);
    let mut table_rows: Vec<(&str, String)> = Vec::new();
    for &n in flagged.iter().take(10) {
        let v_mean = volts.row(n).iter().sum::<f64>() / total as f64;
        let f_mean = fans.row(n).iter().sum::<f64>() / total as f64;
        let jobs: Vec<String> = scenario
            .job_log()
            .jobs_on_node(n)
            .map(|j| format!("{}#{}", j.project, j.id))
            .collect();
        let hw_flag = if hw_nodes.contains(&n) {
            " [HW ERRORS]"
        } else {
            ""
        };
        println!(
            "  node {n:>3}: z={:+.2}, volts {v_mean:.2} V, fan {f_mean:.0} RPM, jobs {:?}{hw_flag}",
            node_z[n], jobs
        );
        table_rows.push((
            "flagged node",
            format!(
                "{n}: z={:+.2}, {v_mean:.2} V, {f_mean:.0} RPM, jobs {jobs:?}{hw_flag}",
                node_z[n]
            ),
        ));
    }

    // Assemble the HTML report: rack view + temperature heatmap + table.
    let view = RackView::new(scenario.machine())
        .with_values(&node_z)
        .with_outlined(hw_nodes.iter().copied())
        .with_title("multifidelity alignment — node z-scores");
    let heat = heatmap_svg(
        &model.reconstruct(),
        &HeatmapConfig {
            title: "denoised temperatures (I-mrDMD reconstruction)".into(),
            ..Default::default()
        },
    );
    let mut report = HtmlReport::new("Multifidelity alignment report");
    report
        .heading("Rack view")
        .figure(
            &view.to_svg(),
            "z-scores vs mid-band baseline; hardware-error nodes outlined",
        )
        .heading("Reconstruction")
        .figure(
            &heat,
            "sensor × time heatmap of the denoised temperature channels",
        )
        .heading("Flagged nodes, cross-checked against voltage / fan / job / hardware logs")
        .kv_table(
            &table_rows
                .iter()
                .map(|(k, v)| (*k, v.clone()))
                .collect::<Vec<_>>(),
        );
    let path = std::env::temp_dir().join("multifidelity_alignment.html");
    std::fs::write(&path, report.finish()).expect("write report");
    println!("report written to {}", path.display());
}
