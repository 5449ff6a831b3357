//! Quickstart: fit I-mrDMD on synthetic supercomputer telemetry, stream an
//! update, and inspect the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use mrdmd_suite::prelude::*;

fn main() {
    // 1. A small Theta-profile scenario: 64 nodes, one temperature channel
    //    each, 1,200 snapshots at 20 s cadence.
    let mut machine = theta().scaled(64);
    machine.series_per_node = 1;
    let scenario = Scenario::sc_log(machine, 1200, 7);
    println!(
        "machine: {} ({} racks, {} nodes), dt = {} s",
        scenario.machine().name,
        scenario.machine().layout.total_racks(),
        scenario.machine().n_nodes,
        scenario.dt()
    );

    // 2. Initial fit on the first 1,000 snapshots.
    let initial = scenario.generate(0, 1000);
    let cfg = IMrDmdConfig {
        mr: MrDmdConfig {
            dt: scenario.dt(),
            max_levels: 5,
            max_cycles: 2,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        },
        keep_history: true,
        ..IMrDmdConfig::default()
    };
    let mut model = IMrDmd::fit(&initial, &cfg);
    println!(
        "initial fit: {} modes across {} levels (root rank {})",
        model.n_modes(),
        model.depth(),
        model.root_rank()
    );

    // 3. Stream the remaining 200 snapshots as one batch.
    let batch = scenario.generate(1000, 1200);
    let report = model.partial_fit(&batch);
    println!(
        "partial fit: +{} snapshots, {} new root columns, drift {:.3e}, {} new modes",
        report.batch_len, report.new_root_cols, report.drift, report.new_subtree_modes
    );

    // 4. Reconstruction quality (the denoising view of the paper's Fig. 3).
    let data = initial.hstack(&batch);
    let recon = model.reconstruct();
    println!(
        "reconstruction: ‖actual − recon‖_F = {:.2} (relative {:.4})",
        recon.fro_dist(&data),
        recon.fro_dist(&data) / data.fro_norm()
    );

    // 5. The mode spectrum (Eqs. 9–10).
    let spectrum = mode_spectrum(model.nodes());
    let max_power = spectrum.iter().map(|p| p.power).fold(0.0f64, f64::max);
    println!(
        "spectrum: {} modes, peak power {:.3e}",
        spectrum.len(),
        max_power
    );
    for (level, power) in power_by_level(&spectrum) {
        println!("  level {level}: total power {power:.3e}");
    }

    // 6. Z-scores against a 40–50 °C baseline band and a rack digest.
    let mags = row_mode_magnitudes(model.nodes(), &BandFilter::all(), data.rows());
    let baseline = select_baseline_rows(&data, 40.0, 50.0);
    if baseline.is_empty() {
        println!("no series in the 40–50 °C baseline band; skipping z-scores");
        return;
    }
    let z = ZScores::from_baseline(&mags, &baseline);
    let th = ZThresholds::default();
    println!(
        "z-scores: {:.0}% of nodes near baseline; hottest z = {:.2}",
        z.fraction_near(&th) * 100.0,
        z.z.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    );
    let view = RackView::new(scenario.machine())
        .with_values(&z.z)
        .with_title("quickstart");
    print!("{}", view.to_ascii());
    let path = std::env::temp_dir().join("quickstart_rack.svg");
    std::fs::write(&path, view.to_svg()).expect("write SVG");
    println!("rack view written to {}", path.display());
}
