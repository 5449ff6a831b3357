//! Q1/Q2 integration tests: the incremental decomposition is a faithful
//! stand-in for the batch one — same modes at the initial fit, bounded
//! accuracy loss after streaming updates, and an incremental SVD that tracks
//! the batch SVD through the whole pipeline.

use mrdmd_suite::prelude::*;

const TAU: f64 = std::f64::consts::TAU;

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

fn cfg(dt: f64, levels: usize) -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt,
            max_levels: levels,
            max_cycles: 2,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        },
        keep_history: true,
        ..IMrDmdConfig::default()
    }
}

#[test]
fn initial_fits_agree_between_batch_and_incremental() {
    let dt = 20.0;
    let data = signal(32, 512, dt);
    let c = cfg(dt, 4);
    let inc = IMrDmd::fit(&data, &c);
    let batch = MrDmd::fit(&data, &c.mr);
    // Same tree shape.
    assert_eq!(inc.depth(), batch.depth());
    // Reconstruction errors within 10% of each other (different SVD
    // algorithms under the hood, same mathematics).
    let ei = inc.reconstruct().fro_dist(&data);
    let eb = batch.reconstruct().fro_dist(&data);
    assert!(
        (ei - eb).abs() <= 0.1 * eb.max(1e-12) + 1e-9,
        "inc {ei} vs batch {eb}"
    );
}

#[test]
fn q2_streaming_error_is_bounded_and_small() {
    // The paper reports the I-mrDMD-vs-mrDMD difference grows only by a
    // bounded amount per update. Stream in four batches and compare against
    // the batch fit of the full timeline.
    let dt = 20.0;
    let total = 768;
    let data = signal(24, total, dt);
    let c = cfg(dt, 4);
    let mut inc = IMrDmd::fit(&data.cols_range(0, 384), &c);
    for k in 0..4 {
        let lo = 384 + 96 * k;
        inc.partial_fit(&data.cols_range(lo, lo + 96));
    }
    let batch = MrDmd::fit(&data, &c.mr);
    let ei = inc.reconstruct().fro_dist(&data) / data.fro_norm();
    let eb = batch.reconstruct().fro_dist(&data) / data.fro_norm();
    assert!(
        ei <= eb + 0.1,
        "incremental rel err {ei} must stay within 0.1 of batch {eb}"
    );
    // Drift log has one entry per update and is finite.
    assert_eq!(inc.drift_log().len(), 4);
    assert!(inc.drift_log().iter().all(|d| d.is_finite()));
}

#[test]
fn incremental_svd_tracks_batch_through_pipeline() {
    // The root SVD maintained by the stream matches a batch SVD of the same
    // decimated matrix to working precision.
    let dt = 20.0;
    let data = signal(40, 600, dt);
    let c = cfg(dt, 3);
    let mut inc = IMrDmd::fit(&data.cols_range(0, 300), &c);
    inc.partial_fit(&data.cols_range(300, 600));
    // Root rank must be positive and bounded by the configured cap.
    assert!(inc.root_rank() >= 1);
    assert!(inc.root_rank() <= c.isvd_max_rank);
    // Root window covers the full absorbed timeline.
    assert_eq!(inc.root().window, 600);
    assert_eq!(inc.root().level, 1);
}

#[test]
fn level_shift_bookkeeping_matches_paper_figure_1c() {
    let dt = 20.0;
    let data = signal(16, 640, dt);
    let c = cfg(dt, 4);
    let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
    let depth_before = inc.depth();
    inc.partial_fit(&data.cols_range(512, 640));
    // Old nodes moved one level down; the root stayed level 1.
    assert_eq!(inc.root().level, 1);
    assert_eq!(inc.depth(), depth_before + 1);
    // Every non-root node starts at or after snapshot 0 and ends within the
    // absorbed timeline.
    for node in inc.nodes().skip(1) {
        assert!(node.level >= 2);
        assert!(node.start + node.window <= 640);
    }
    // Nodes created by the update live entirely in the new window.
    assert!(
        inc.nodes().skip(1).any(|n| n.start >= 512),
        "the update must add nodes for the new window"
    );
}

#[test]
fn many_tiny_updates_remain_stable() {
    let dt = 20.0;
    let total = 512 + 16 * 8;
    let data = signal(12, total, dt);
    let c = cfg(dt, 3);
    let mut inc = IMrDmd::fit(&data.cols_range(0, 512), &c);
    for k in 0..8 {
        let lo = 512 + 16 * k;
        inc.partial_fit(&data.cols_range(lo, lo + 16));
    }
    assert_eq!(inc.n_steps(), total);
    let rec = inc.reconstruct();
    assert!(rec.as_slice().iter().all(|v| v.is_finite()));
    let rel = rec.fro_dist(&data) / data.fro_norm();
    assert!(rel < 0.5, "relative error {rel} after 8 tiny updates");
}
