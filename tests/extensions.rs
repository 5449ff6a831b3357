//! Integration tests for the suite's extensions of the paper's future-work
//! items: subtree refresh, incremental sensor addition, forecasting,
//! archive compression ratios, the windowed-mrDMD comparator and log I/O.

use mrdmd_suite::prelude::*;
use mrdmd_suite::telemetry::{
    read_hw_log, read_job_log, read_snapshots_csv, write_hw_log, write_job_log, write_snapshots_csv,
};

fn scenario(n_nodes: usize, total: usize) -> Scenario {
    let mut machine = theta().scaled(n_nodes);
    machine.series_per_node = 1;
    Scenario::sc_log(machine, total, 17)
}

fn cfg(dt: f64) -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt,
            max_levels: 4,
            max_cycles: 2,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        },
        keep_history: true,
        ..IMrDmdConfig::default()
    }
}

#[test]
fn refresh_subtrees_after_long_stream_recovers_accuracy() {
    let s = scenario(32, 1024);
    let data = s.generate(0, 1024);
    let c = cfg(s.dt());
    let mut model = IMrDmd::fit(&data.cols_range(0, 512), &c);
    for k in 0..4 {
        let lo = 512 + 128 * k;
        model.partial_fit(&data.cols_range(lo, lo + 128));
    }
    let drifted = model.reconstruct().fro_dist(&data);
    model.try_refresh_subtrees().expect("history is kept");
    let refreshed = model.reconstruct().fro_dist(&data);
    // The refreshed tree (proper halving against the current root) must not
    // be meaningfully worse, and usually is much better.
    assert!(refreshed <= drifted * 1.1 + 1e-9, "{drifted} → {refreshed}");
    // And it matches a batch fit's quality within a modest factor.
    let batch = MrDmd::fit(&data, &c.mr).reconstruct().fro_dist(&data);
    assert!(
        refreshed <= batch * 2.0 + 1e-9,
        "refreshed {refreshed} vs batch {batch}"
    );
}

#[test]
fn add_series_then_zscores_cover_new_sensors() {
    let s = scenario(24, 512);
    let data = s.generate(0, 512);
    let c = cfg(s.dt());
    let mut model = IMrDmd::fit(&data.rows_range(0, 16), &c);
    model.add_series(&data.rows_range(16, 24));
    assert_eq!(model.n_rows(), 24);
    // Downstream analysis covers all 24 sensors.
    let mags = row_mode_magnitudes(model.nodes(), &BandFilter::all(), 24);
    assert_eq!(mags.len(), 24);
    assert!(
        mags[16..].iter().any(|&m| m > 0.0),
        "new sensors must carry magnitude"
    );
    let z = ZScores::from_baseline(&mags, &(0..12).collect::<Vec<_>>());
    assert!(z.z.iter().all(|v| v.is_finite()));
}

#[test]
fn forecast_beats_zero_and_respects_shape() {
    let s = scenario(16, 700);
    let data = s.generate(0, 700);
    let c = cfg(s.dt());
    let model = IMrDmd::fit(&data.cols_range(0, 636), &c);
    let fc = model.forecast(64);
    assert_eq!(fc.shape(), (16, 64));
    let truth = data.cols_range(636, 700);
    // Compare against predicting the last observed column held constant —
    // a standard naive baseline.
    let last_col = data.col(635);
    let naive = hpc_linalg::Mat::from_fn(16, 64, |i, _| last_col[i]);
    let err_fc = fc.fro_dist(&truth);
    let err_naive = naive.fro_dist(&truth);
    // DMD extrapolation should at least stay in the same league as the
    // naive hold (and usually beat the zero predictor decisively).
    assert!(
        err_fc < truth.fro_norm(),
        "forecast worse than zero predictor"
    );
    assert!(
        err_fc < 3.0 * err_naive,
        "forecast err {err_fc} vs naive hold {err_naive}"
    );
}

#[test]
fn windowed_comparator_full_pipeline() {
    let s = scenario(24, 900);
    let data = s.generate(0, 900);
    let mr = cfg(s.dt()).mr;
    let wcfg = WindowedConfig {
        mr,
        window: 300,
        overlap: 60,
    };
    let mut w = WindowedMrDmd::fit(&data.cols_range(0, 300), &wcfg);
    let mut inc = IMrDmd::fit(&data.cols_range(0, 300), &cfg(s.dt()));
    for start in (300..900).step_by(200) {
        let batch = data.cols_range(start, (start + 200).min(900));
        w.partial_fit(&batch);
        inc.partial_fit(&batch);
    }
    assert_eq!(w.n_steps(), 900);
    // Both reconstruct the covered region sanely.
    let rel_w = w
        .reconstruct_range(0, 780)
        .fro_dist(&data.cols_range(0, 780))
        / data.cols_range(0, 780).fro_norm();
    let rel_i = inc.reconstruct().fro_dist(&data) / data.fro_norm();
    assert!(rel_w < 1.0, "windowed rel {rel_w}");
    assert!(rel_i < 1.0, "incremental rel {rel_i}");
}

#[test]
fn compression_report_from_streamed_model() {
    let s = scenario(32, 2048);
    let data = s.generate(0, 2048);
    let model = IMrDmd::fit(&data, &cfg(s.dt()));
    let info = encode_archive(&model, QuantTier::F64, &mut std::io::sink()).unwrap();
    assert!(info.ratio() > 2.0, "ratio {}", info.ratio());
    assert_eq!(info.raw_bytes(), 32 * 2048 * 8);
}

#[test]
fn logs_roundtrip_and_feed_the_pipeline() {
    let s = scenario(16, 400);
    let data = s.generate(0, 400);
    // Snapshots → CSV → back → identical analysis result.
    let mut csv = Vec::new();
    write_snapshots_csv(&mut csv, &data, 0).unwrap();
    let (back, first) = read_snapshots_csv(&csv[..]).unwrap();
    assert_eq!(first, 0);
    let m1 = IMrDmd::fit(&data, &cfg(s.dt()));
    let m2 = IMrDmd::fit(&back, &cfg(s.dt()));
    assert!(m1.reconstruct().fro_dist(&m2.reconstruct()) < 1e-9);
    // Job and hardware logs round-trip alongside.
    let mut jbuf = Vec::new();
    write_job_log(&mut jbuf, s.job_log()).unwrap();
    let jobs = read_job_log(&jbuf[..], 16).unwrap();
    assert_eq!(jobs.jobs.len(), s.job_log().jobs.len());
    let hw = HwLog::synthesize(16, 400, s.anomalies(), 1.0, 17);
    let mut hbuf = Vec::new();
    write_hw_log(&mut hbuf, &hw).unwrap();
    assert_eq!(
        read_hw_log(&hbuf[..]).unwrap().events.len(),
        hw.events.len()
    );
}

#[test]
fn heatmap_of_reconstruction_renders() {
    let s = scenario(24, 300);
    let data = s.generate(0, 300);
    let model = IMrDmd::fit(&data, &cfg(s.dt()));
    let rec = model.reconstruct();
    let svg = mrdmd_suite::viz::heatmap_svg(
        &rec,
        &mrdmd_suite::viz::HeatmapConfig {
            title: "recon".into(),
            ..Default::default()
        },
    );
    assert!(svg.contains("</svg>"));
    assert!(svg.contains(">recon</text>"));
}
