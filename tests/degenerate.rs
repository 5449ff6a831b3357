//! Degenerate-input regression tests (ISSUE PR 1, satellite 4): edge cases
//! on the streaming API that are easy to break while refactoring the hot
//! paths — empty `add_series` batches, zero-length forecasts, and streaming
//! after a sensor addition.

use mrdmd_suite::prelude::*;

fn scenario(n_nodes: usize, total: usize, seed: u64) -> Scenario {
    let mut machine = theta().scaled(n_nodes);
    machine.series_per_node = 1;
    Scenario::sc_log(machine, total, seed)
}

fn cfg(sc: &Scenario, levels: usize) -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt: sc.dt(),
            max_levels: levels,
            max_cycles: 2,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    }
}

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Adding a 0-row batch of sensors is a no-op: same tree, same output.
#[test]
fn add_series_with_zero_rows_is_a_noop() {
    let total = 256;
    let sc = scenario(12, total, 3);
    let data = sc.generate(0, total);
    let mut model = IMrDmd::fit(&data, &cfg(&sc, 3));
    let n_modes = model.n_modes();
    let node_count = model.nodes().count();
    let rec = bits(&model.reconstruct());
    model.add_series(&Mat::zeros(0, total));
    assert_eq!(model.n_modes(), n_modes, "mode count unchanged");
    assert_eq!(model.nodes().count(), node_count, "node count unchanged");
    assert_eq!(bits(&model.reconstruct()), rec, "reconstruction unchanged");
}

/// A zero-length forecast is an empty matrix, not a panic.
#[test]
fn forecast_with_zero_horizon_is_empty() {
    let total = 256;
    let sc = scenario(10, total, 5);
    let model = IMrDmd::fit(&sc.generate(0, total), &cfg(&sc, 3));
    let f = model.forecast(0);
    assert_eq!((f.rows(), f.cols()), (10, 0));
    // And the first non-degenerate horizon stays finite.
    let f = model.forecast(1);
    assert_eq!((f.rows(), f.cols()), (10, 1));
    assert!(f.as_slice().iter().all(|v| v.is_finite()));
}

/// The stream keeps absorbing snapshots after new sensors are added: the
/// batch now carries rows for both the original and the appended series.
#[test]
fn partial_fit_after_add_series_absorbs_the_wider_stream() {
    let total = 384;
    let t0 = 256;
    let sc = scenario(8, total, 11);
    let extra_sc = scenario(4, total, 12);
    let mut model = IMrDmd::fit(&sc.generate(0, t0), &cfg(&sc, 3));
    model.add_series(&extra_sc.generate(0, t0));

    // Widened batch: original rows stacked over the appended sensors' rows.
    let batch = sc.generate(t0, total).vstack(&extra_sc.generate(t0, total));
    assert_eq!(batch.rows(), 12);
    let report = model.partial_fit(&batch);
    assert_eq!(report.batch_len, total - t0);
    assert_eq!(model.n_steps(), total);
    assert_eq!(model.root().window, total);
    let rec = model.reconstruct();
    assert_eq!((rec.rows(), rec.cols()), (12, total));
    assert!(rec.as_slice().iter().all(|v| v.is_finite()));
    // The appended sensors' dedicated subtree survives the update.
    assert!(
        model.nodes().any(|n| n.row_offset == 8),
        "appended-row subtree retained"
    );
}
