//! `repro report` — assembles every artefact in the output directory into a
//! single self-contained HTML dashboard (the suite's stand-in for the
//! paper's Jupyter-notebook interface).

use super::Opts;
use rackviz::HtmlReport;
use std::fs;
use std::path::Path;

/// Known artefacts in presentation order: (file, section, caption).
const FIGURES: &[(&str, &str, &str)] = &[
    ("fig1_tree.svg", "Fig. 1 — Multiresolution tree", "Window boxes per level after one incremental update; colour = log mode power, label = mode count."),
    ("fig3_reconstruction.svg", "Fig. 3 — Reconstruction", "Actual vs I-mrDMD-reconstructed series; the reconstruction strips the high-frequency noise floor."),
    ("fig4_rackview.svg", "Fig. 4 — Case study 1 rack view", "Theta rack view coloured by z-scores against the 46–57 °C baseline; correctable-memory nodes highlighted."),
    ("fig5_spectrum.svg", "Fig. 5 — Case study 1 spectrum", "Mode power against oscillation frequency across the multiresolution tree."),
    ("fig6a_rackview.svg", "Fig. 6(a) — Case study 2, first 8 h", "Hot window, baselines 45–60 °C; persistently failing nodes outlined."),
    ("fig6b_rackview.svg", "Fig. 6(b) — Case study 2, second 8 h", "Cool window, baselines 30–45 °C."),
    ("fig7_spectra.svg", "Fig. 7 — Case study 2 spectra", "Overlaid spectra of the two windows; the hot window carries power at higher frequencies."),
    ("fig8_embeddings.svg", "Fig. 8 — Method comparison", "Baseline (blue) vs non-baseline (red) embeddings across all seven methods plus the raw summary."),
    ("fig9_timing.svg", "Fig. 9 — Completion time vs data size", "Initial/partial fit seconds per method as the timeline grows."),
];

const REPORTS: &[(&str, &str)] = &[
    ("table1.txt", "Table I — Initial vs partial fit"),
    ("eval_env.txt", "Sec. IV — Environment-log evaluation"),
    ("eval_gpu.txt", "Sec. IV — GPU-metrics evaluation"),
    ("fig3.txt", "Fig. 3 — Numbers"),
    ("fig8.txt", "Fig. 8 — Separation scores"),
    ("fig9.txt", "Fig. 9 — Timing table"),
    ("case1.txt", "Case study 1 — Report"),
    ("case2.txt", "Case study 2 — Report"),
];

/// Assembles `report.html` in the output directory from whatever artefacts
/// exist there; returns the number of artefacts included.
pub fn run(opts: &Opts) -> std::io::Result<usize> {
    let dir = &opts.out_dir;
    fs::create_dir_all(dir)?;
    let mut report = HtmlReport::new("I-mrDMD reproduction dashboard");
    report.paragraph(
        "Every table and figure of \"An Incremental Multi-Level, Multi-Scale Approach to \
         Assessment of Multifidelity HPC Systems\" (SC 2024), regenerated by this repository's \
         synthetic-telemetry reproduction. Absolute numbers differ from the paper (different \
         hardware and data); the comparison targets are the shapes.",
    );
    let mut included = 0usize;
    // Numerical health strip at the top, assembled from the `health.txt`
    // artefact the evaluation experiments write (`label: value` per line).
    if let Some(text) = read_if_exists(dir, "health.txt") {
        let items: Vec<(String, String)> = text
            .lines()
            .filter_map(|l| l.split_once(": "))
            .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            .collect();
        if !items.is_empty() {
            let borrowed: Vec<(&str, &str)> = items
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            report.status_strip(&borrowed);
            included += 1;
        }
    }
    for (file, section, caption) in FIGURES {
        if let Some(svg) = read_if_exists(dir, file) {
            report.heading(section);
            report.figure(&svg, caption);
            included += 1;
        }
    }
    // Observability panel: per-round streaming timings rendered as a bar
    // panel, plus the Prometheus text of the run's counters/histograms.
    if let Some(text) = read_if_exists(dir, "round_timings.txt") {
        let rows: Vec<(String, f64)> = text
            .lines()
            .filter_map(|l| l.split_once(": "))
            .filter_map(|(k, v)| v.trim().parse::<f64>().ok().map(|s| (k.to_string(), s)))
            .collect();
        if !rows.is_empty() {
            report.heading("Observability — per-round timing");
            report.paragraph(
                "Wall time of each incremental update round in the streaming-strategy \
                 ablation (I-mrDMD strategy); bars scaled to the slowest round.",
            );
            report.timing_panel(&rows);
            included += 1;
        }
    }
    if let Some(text) = read_if_exists(dir, "metrics.prom") {
        report.heading("Observability — metrics registry");
        report.preformatted(&text);
        included += 1;
    }
    for (file, section) in REPORTS {
        if let Some(text) = read_if_exists(dir, file) {
            report.heading(section);
            report.preformatted(&text);
            included += 1;
        }
    }
    if included == 0 {
        report.paragraph("No artefacts found — run `repro all --out <this dir>` first.");
    }
    fs::write(dir.join("report.html"), report.finish())?;
    println!(
        "report.html assembled from {included} artefact(s) in {}",
        dir.display()
    );
    Ok(included)
}

fn read_if_exists(dir: &Path, file: &str) -> Option<String> {
    fs::read_to_string(dir.join(file)).ok()
}
