//! Spectrum explorer: how the mrDMD tree's knobs shape what it extracts.
//!
//! Sweeps `max_levels`, `max_cycles`, and the Nyquist oversampling factor on
//! a signal with planted frequencies, reporting which frequencies each
//! configuration recovers, the reconstruction error, and the fit cost — the
//! ablation behind the paper's parameter choices (levels 6–9, 4× Nyquist,
//! `max_cycles = 2`).
//!
//! ```sh
//! cargo run --release --example spectrum_explorer
//! ```

use mrdmd_suite::prelude::*;
use std::time::Instant;

/// Planted multiscale signal: three traveling waves at known frequencies.
fn planted(p: usize, t: usize, dt: f64) -> (Mat, [f64; 3]) {
    let freqs = [0.0004, 0.0015, 0.005]; // Hz: capturable at levels ~3, ~5, ~7
    let data = Mat::from_fn(p, t, |i, j| {
        let x = i as f64 / p as f64;
        let tt = j as f64 * dt;
        let tau = std::f64::consts::TAU;
        (tau * freqs[0] * tt + 2.0 * x).sin()
            + 0.6 * (tau * freqs[1] * tt + 5.0 * x).sin()
            + 0.3 * (tau * freqs[2] * tt + 9.0 * x).sin()
            + 0.02 * (tau * 0.4 * tt + 13.0 * x).sin()
    });
    (data, freqs)
}

/// Fraction of planted frequencies recovered within 25% relative error.
fn recovered(model_spectrum: &[SpectrumPoint], planted: &[f64]) -> usize {
    planted
        .iter()
        .filter(|&&f| {
            model_spectrum
                .iter()
                .any(|p| p.power > 1e-6 && (p.frequency_hz - f).abs() <= 0.25 * f)
        })
        .count()
}

fn main() {
    let dt = 20.0;
    let (data, freqs) = planted(256, 2048, dt);
    println!("planted frequencies: {:?} Hz\n", freqs);

    println!("-- depth sweep (max_cycles = 2, 4x Nyquist) --");
    for levels in [2usize, 4, 6, 8, 9] {
        let cfg = MrDmdConfig {
            dt,
            max_levels: levels,
            max_cycles: 2,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        };
        let t0 = Instant::now();
        let m = MrDmd::fit(&data, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        let pts = mode_spectrum(&m.nodes);
        let rel = m.reconstruct().fro_dist(&data) / data.fro_norm();
        println!(
            "levels {levels}: {:>3} modes, recovered {}/3 planted freqs, rel err {rel:.4}, fit {secs:.3}s",
            m.n_modes(),
            recovered(&pts, &freqs)
        );
    }

    println!("\n-- max_cycles sweep (6 levels) --");
    for cycles in [1usize, 2, 4, 8] {
        let cfg = MrDmdConfig {
            dt,
            max_levels: 6,
            max_cycles: cycles,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        };
        let t0 = Instant::now();
        let m = MrDmd::fit(&data, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        let rel = m.reconstruct().fro_dist(&data) / data.fro_norm();
        println!(
            "max_cycles {cycles}: {:>3} modes, rel err {rel:.4}, fit {secs:.3}s (root decimation step {})",
            m.n_modes(),
            cfg.subsample_step(2048)
        );
    }

    println!("\n-- Nyquist-factor sweep (6 levels, max_cycles = 2) --");
    for nf in [1usize, 2, 4, 8] {
        let cfg = MrDmdConfig {
            dt,
            max_levels: 6,
            max_cycles: 2,
            nyquist_factor: nf,
            rank: RankSelection::Svht,
            ..MrDmdConfig::default()
        };
        let t0 = Instant::now();
        let m = MrDmd::fit(&data, &cfg);
        let secs = t0.elapsed().as_secs_f64();
        let rel = m.reconstruct().fro_dist(&data) / data.fro_norm();
        println!(
            "{nf}x Nyquist: {:>3} modes, rel err {rel:.4}, fit {secs:.3}s (samples per window {})",
            m.n_modes(),
            nf * 2 * 2
        );
    }

    // Band filtering: isolate the job-scale band and see which modes remain.
    let cfg = MrDmdConfig {
        dt,
        max_levels: 6,
        max_cycles: 2,
        rank: RankSelection::Svht,
        ..MrDmdConfig::default()
    };
    let m = MrDmd::fit(&data, &cfg);
    let pts = mode_spectrum(&m.nodes);
    let job_band = BandFilter::band(0.001, 0.01);
    let in_band = job_band.apply(&pts);
    println!(
        "\nband filter 1–10 mHz keeps {} of {} modes (job-scale dynamics)",
        in_band.len(),
        pts.len()
    );

    // Write the spectrum SVG.
    let series: Vec<Series> = (1..=m.depth())
        .map(|lvl| {
            Series::new(
                format!("level {lvl}"),
                pts.iter()
                    .filter(|p| p.level == lvl)
                    .map(|p| (p.frequency_hz * 1e3, p.power))
                    .collect(),
            )
        })
        .collect();
    let svg = scatter_svg(
        &series,
        &PlotConfig {
            title: "mrDMD spectrum by level".into(),
            xlabel: "frequency (mHz)".into(),
            ylabel: "power ‖φ‖²".into(),
            log_y: true,
            ..Default::default()
        },
    );
    let path = std::env::temp_dir().join("spectrum_by_level.svg");
    std::fs::write(&path, svg).expect("write SVG");
    println!("spectrum written to {}", path.display());
}
