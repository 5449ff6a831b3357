//! **Compression** (Sec. I / VI): the paper motivates mrDMD as reducing log
//! volumes "from terabytes to megabytes". This experiment measures the
//! raw-vs-archive byte ratio as the timeline grows and as the tree deepens,
//! together with the reconstruction error the compression costs. The
//! archive is encoded at the lossless `f64` tier and at `q16`.

use super::Opts;
use crate::harness::{row, ExperimentOutput, Workloads};
use imrdmd::prelude::*;

/// One measured compression point.
#[derive(Clone, Debug, serde::Serialize)]
pub struct CompressionRow {
    /// Time points.
    pub t: usize,
    /// Tree depth used.
    pub levels: usize,
    /// Raw bytes of the snapshot matrix.
    pub raw_bytes: u64,
    /// Bytes of the tree's `f64` archive.
    pub model_bytes: u64,
    /// Compression ratio of the `f64` archive.
    pub ratio: f64,
    /// Bytes of the tree's `q16` archive.
    pub q16_bytes: u64,
    /// Compression ratio of the `q16` archive.
    pub q16_ratio: f64,
    /// Relative reconstruction error paid for it.
    pub rel_error: f64,
}

/// Runs the compression sweep.
pub fn run(opts: &Opts) -> std::io::Result<Vec<CompressionRow>> {
    let mut out = ExperimentOutput::new(&opts.out_dir)?;
    let n = if opts.full { 4096 } else { 512 };
    out.line(format!(
        "Compression: mode-tree archive bytes vs raw telemetry ({n} series)"
    ));
    out.line(row(&[
        "T".into(),
        "levels".into(),
        "raw MB".into(),
        "model MB".into(),
        "ratio".into(),
        "q16 MB".into(),
        "q16 ratio".into(),
        "rel err".into(),
    ]));
    let mut rows = Vec::new();
    let t_max = if opts.full { 32_000 } else { 8_000 };
    let scenario = Workloads::sc_log(n, t_max, opts.seed);
    for levels in [4usize, 6, 8] {
        let cfg = Workloads::imrdmd_config(&scenario, levels).mr;
        let mut t = 2_000;
        while t <= t_max {
            let data = scenario.generate(0, t);
            let m = MrDmd::fit(&data, &cfg);
            let measure = |tier| {
                let sink = &mut std::io::sink();
                encode_tree(m.nodes.iter(), m.n_rows, m.n_steps, cfg.dt, tier, sink)
            };
            let (f64, q16) = (measure(QuantTier::F64)?, measure(QuantTier::Q16)?);
            let rel = m.reconstruct().fro_dist(&data) / data.fro_norm();
            out.line(row(&[
                t.to_string(),
                levels.to_string(),
                format!("{:.2}", f64.raw_bytes() as f64 / 1e6),
                format!("{:.3}", f64.bytes as f64 / 1e6),
                format!("{:.1}x", f64.ratio()),
                format!("{:.3}", q16.bytes as f64 / 1e6),
                format!("{:.1}x", q16.ratio()),
                format!("{rel:.4}"),
            ]));
            rows.push(CompressionRow {
                t,
                levels,
                raw_bytes: f64.raw_bytes(),
                model_bytes: f64.bytes,
                ratio: f64.ratio(),
                q16_bytes: q16.bytes,
                q16_ratio: q16.ratio(),
                rel_error: rel,
            });
            t *= 2;
        }
    }
    // The headline shape: at fixed depth the tree size is ~T-independent, so
    // the ratio grows linearly with the timeline.
    let l6: Vec<&CompressionRow> = rows.iter().filter(|r| r.levels == 6).collect();
    if l6.len() >= 2 {
        out.line(String::new());
        out.line(format!(
            "shape: at 6 levels, ratio grows {:.1}x → {:.1}x as T goes {} → {} (paper: TB → MB)",
            l6.first().unwrap().ratio,
            l6.last().unwrap().ratio,
            l6.first().unwrap().t,
            l6.last().unwrap().t,
        ));
    }
    out.artefact(
        "compression.json",
        &serde_json::to_string_pretty(&rows).unwrap(),
    )?;
    out.finish("compression")?;
    Ok(rows)
}
