//! End-to-end pipeline integration: telemetry generation → streaming
//! I-mrDMD → spectrum → baseline z-scores → rack visualization, with the
//! injected ground truth validating each stage.

use mrdmd_suite::prelude::*;

fn small_cfg(dt: f64) -> IMrDmdConfig {
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

/// A scenario with one strong, known overheat anomaly.
fn scenario_with_overheat(n_nodes: usize, total: usize) -> (Scenario, usize) {
    let mut machine = theta().scaled(n_nodes);
    machine.series_per_node = 1;
    let jobs = JobLog::synthesize(n_nodes, total, 4, 5);
    let hot_node = n_nodes / 2;
    // Well above job heat so the anomaly dominates the magnitude ranking.
    let anomalies = vec![Anomaly::Overheat {
        node: hot_node,
        start: total / 8,
        end: total,
        delta: 35.0,
    }];
    (
        Scenario::new(machine, Profile::ScLog, 5, jobs, anomalies),
        hot_node,
    )
}

#[test]
fn stream_fit_detects_injected_overheat() {
    let (scenario, hot_node) = scenario_with_overheat(48, 640);
    let cfg = small_cfg(scenario.dt());
    let mut stream = ChunkStream::new(&scenario, 0, 640, 160);
    let first = stream.next().unwrap();
    let mut model = IMrDmd::fit(&first, &cfg);
    for batch in stream {
        model.partial_fit(&batch);
    }
    assert_eq!(model.n_steps(), 640);

    let data = scenario.generate(0, 640);
    let mags = row_mode_magnitudes(model.nodes(), &BandFilter::all(), data.rows());
    // Baseline: middle half by magnitude (robust to the synthetic regime).
    let mut idx: Vec<usize> = (0..mags.len()).collect();
    idx.sort_by(|&a, &b| mags[a].partial_cmp(&mags[b]).unwrap());
    let baseline = idx[mags.len() / 4..3 * mags.len() / 4].to_vec();
    let z = ZScores::from_baseline(&mags, &baseline);
    // The overheated node must classify as anomalous and rank near the top.
    let mut ranked: Vec<usize> = (0..z.z.len()).collect();
    ranked.sort_by(|&a, &b| z.z[b].partial_cmp(&z.z[a]).unwrap());
    let rank = ranked.iter().position(|&n| n == hot_node).unwrap();
    assert!(
        rank < z.z.len() / 6 + 1,
        "overheat node ranked {rank} of {}",
        z.z.len()
    );
    assert!(
        z.z[hot_node] > 1.5,
        "overheat node z-score {}",
        z.z[hot_node]
    );
}

#[test]
fn rack_view_renders_pipeline_output() {
    let (scenario, hot_node) = scenario_with_overheat(32, 320);
    let cfg = small_cfg(scenario.dt());
    let data = scenario.generate(0, 320);
    let model = IMrDmd::fit(&data, &cfg);
    let mags = row_mode_magnitudes(model.nodes(), &BandFilter::all(), data.rows());
    let baseline: Vec<usize> = (0..8).collect();
    let z = ZScores::from_baseline(&mags, &baseline);
    let hw = HwLog::synthesize(32, 320, scenario.anomalies(), 1.0, 5);
    let outlined = hw.nodes_with_any(0, 320);
    // Highlight a node that is not outlined (outlines take precedence).
    let highlight = (0..32)
        .find(|n| !outlined.contains(n) && *n != hot_node)
        .unwrap();
    let view = RackView::new(scenario.machine())
        .with_values(&z.z)
        .with_outlined(outlined.iter().copied())
        .with_highlighted([highlight]);
    let svg = view.to_svg();
    assert!(svg.contains("</svg>"));
    assert!(svg.contains("#cc0000"), "highlight colour must appear");
    let ascii = view.to_ascii();
    assert_eq!(
        ascii.lines().count(),
        1 + scenario.machine().layout.rows.len()
    );
}

#[test]
fn spectrum_flows_from_streamed_model() {
    let (scenario, _) = scenario_with_overheat(32, 320);
    let cfg = small_cfg(scenario.dt());
    let mut model = IMrDmd::fit(&scenario.generate(0, 160), &cfg);
    model.partial_fit(&scenario.generate(160, 320));
    let pts = mode_spectrum(model.nodes());
    assert!(!pts.is_empty());
    assert!(pts.iter().all(|p| p.power >= 0.0 && p.frequency_hz >= 0.0));
    assert!(pts
        .iter()
        .all(|p| p.frequency_hz.is_finite() && p.power.is_finite()));
    // Band filtering composes.
    let f_max = pts.iter().map(|p| p.frequency_hz).fold(0.0f64, f64::max);
    let kept = BandFilter::band(0.0, f_max).apply(&pts);
    assert_eq!(kept.len(), pts.len());
}

#[test]
fn chunking_does_not_change_the_data_or_final_timeline() {
    let (scenario, _) = scenario_with_overheat(24, 480);
    let cfg = small_cfg(scenario.dt());
    // Two different chunkings of the same stream.
    let fit_with_chunks = |chunk: usize| -> IMrDmd {
        let mut stream = ChunkStream::new(&scenario, 0, 480, chunk);
        let first = stream.next().unwrap();
        let mut model = IMrDmd::fit(&first, &cfg);
        for batch in stream {
            model.partial_fit(&batch);
        }
        model
    };
    let a = fit_with_chunks(240);
    let b = fit_with_chunks(120);
    assert_eq!(a.n_steps(), b.n_steps());
    // Both reconstructions approximate the same data comparably well: the
    // trees differ (different split points), the quality must not collapse.
    let data = scenario.generate(0, 480);
    let ea = a.reconstruct().fro_dist(&data) / data.fro_norm();
    let eb = b.reconstruct().fro_dist(&data) / data.fro_norm();
    assert!(ea < 0.8 && eb < 0.8, "chunked errors {ea} vs {eb}");
}

#[test]
fn job_log_alignment_is_consistent() {
    let (scenario, _) = scenario_with_overheat(40, 320);
    let jobs = scenario.job_log();
    for project in jobs.projects() {
        let nodes = jobs.project_nodes(&project);
        for &n in &nodes {
            assert!(n < 40);
        }
        // Every project node is covered by at least one job of the project.
        for &n in &nodes {
            assert!(jobs.jobs_on_node(n).any(|j| j.project == project));
        }
    }
}

#[test]
fn recompute_resets_drift_and_preserves_quality() {
    let (scenario, _) = scenario_with_overheat(24, 480);
    let mut cfg = small_cfg(scenario.dt());
    cfg.drift_threshold = Some(1e-9);
    let mut model = IMrDmd::fit(&scenario.generate(0, 240), &cfg);
    model.partial_fit(&scenario.generate(240, 480));
    assert!(model.is_stale());
    let before = model.reconstruct().fro_dist(&scenario.generate(0, 480));
    model.try_refresh_subtrees().expect("history is kept");
    assert!(!model.is_stale());
    assert_eq!(model.n_steps(), 480);
    let after = model.reconstruct().fro_dist(&scenario.generate(0, 480));
    // The refreshed tree must not be (much) worse than the incremental one.
    assert!(
        after <= before * 1.5 + 1e-9,
        "refreshed error {after} vs incremental {before}"
    );
}
