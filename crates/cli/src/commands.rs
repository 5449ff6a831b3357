//! Command implementations. Each returns its human-readable report so the
//! tests can assert on behaviour without capturing stdout.

use crate::args::{Command, MetricsFormat, StreamArgs};
use crate::CliError;
use hpc_telemetry::{
    read_snapshots_csv, theta, write_snapshots_csv, LayoutSpec, MachineSpec, Scenario,
};
use imrdmd::prelude::*;
use imrdmd_serve::{ServeConfig, Shard, ShardSnapshot};
use rackviz::RackView;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Executes a parsed command, returning the report text it printed.
pub fn run(cmd: &Command) -> Result<String, CliError> {
    match cmd {
        Command::Synth {
            nodes,
            steps,
            seed,
            out,
        } => synth(*nodes, *steps, *seed, out),
        Command::Fit {
            input,
            config,
            model,
        } => fit(input, config, model),
        Command::Update {
            model,
            input,
            model_out,
            threads,
        } => update(model, input, model_out.as_deref(), *threads),
        Command::Analyze { model, input, band } => analyze(model, input, *band),
        Command::Render {
            model,
            input,
            layout,
            out,
        } => render(model, input, layout, out),
        Command::Info { model } => info(model),
        Command::Health { model } => health(model),
        Command::Stream(args) => stream(args),
        Command::Serve { addr, config } => serve(addr, config),
        Command::Metrics {
            input,
            config,
            chunk,
            format,
        } => metrics(input, config, *chunk, *format),
        Command::Archive {
            model,
            tier,
            out,
            store_dir,
        } => archive(model, *tier, out.as_deref(), store_dir.as_deref()),
        Command::Replay {
            archive,
            store_dir,
            from,
            to,
            out,
        } => replay(
            archive.as_deref(),
            store_dir.as_deref(),
            *from,
            *to,
            out.as_deref(),
        ),
    }
}

fn serve(addr: &str, config: &ServeConfig) -> Result<String, CliError> {
    let (server, restored, corrupt) = imrdmd_serve::Server::bind(addr, config.clone())
        .map_err(|e| CliError(format!("cannot bind {addr}: {e}")))?;
    let addr = server.local_addr();
    eprintln!(
        "imrdmd-serve listening on http://{addr} ({restored} shards restored, {corrupt} corrupt)"
    );
    server
        .run()
        .map_err(|e| CliError(format!("server failed: {e}")))?;
    Ok(format!(
        "server on {addr} stopped ({restored} shards restored at boot, {corrupt} corrupt)"
    ))
}

/// Shard namespace of CLI model files and of `stream`'s checkpoints
/// (`ckpt-stream-<steps>.ckpt`).
const STREAM_SHARD: &str = "stream";

/// Loads a `--model` file: a shard checkpoint (model, ingest guard, round
/// count), checked by [`ShardSnapshot::load`].
fn load_model(path: &Path) -> Result<ShardSnapshot, CliError> {
    ShardSnapshot::load(path)
        .map_err(|e| CliError(format!("cannot read model {}: {e}", path.display())))
}

/// Writes the shard's snapshot to `path` as a checkpoint (header, length,
/// CRC-32, atomic rename), so a crash mid-write (e.g. `update` overwriting
/// its own input) never truncates the only copy. Returns what it wrote.
fn save_model(path: &Path, shard: &Shard) -> Result<ShardSnapshot, CliError> {
    let snap = shard
        .snapshot()
        .ok_or_else(|| CliError("nothing to save: no snapshot was absorbed".into()))?;
    save_state_checkpoint(&snap, path)?;
    Ok(snap)
}

fn load_csv(path: &Path) -> Result<(hpc_linalg::Mat, usize), CliError> {
    let file = fs::File::open(path)
        .map_err(|e| CliError(format!("cannot open {}: {e}", path.display())))?;
    Ok(read_snapshots_csv(std::io::BufReader::new(file))?)
}

/// Fails unless `data` has one row per series `model` tracks.
fn check_series(model: &IMrDmd, data: &hpc_linalg::Mat) -> Result<(), CliError> {
    if data.rows() != model.n_rows() {
        return Err(CliError(format!(
            "input has {} series but the model tracks {}",
            data.rows(),
            model.n_rows()
        )));
    }
    Ok(())
}

fn synth(nodes: usize, steps: usize, seed: u64, out: &Path) -> Result<String, CliError> {
    if nodes == 0 || steps < 2 {
        return Err(CliError("synth needs --nodes ≥ 1 and --steps ≥ 2".into()));
    }
    let mut machine: MachineSpec = theta().scaled(nodes);
    machine.series_per_node = 1;
    let scenario = Scenario::sc_log(machine, steps, seed);
    let data = scenario.generate(0, steps);
    let mut file = std::io::BufWriter::new(fs::File::create(out)?);
    write_snapshots_csv(&mut file, &data, 0)?;
    use std::io::Write as _;
    file.flush()?;
    Ok(format!(
        "wrote {} series × {steps} snapshots (seed {seed}, {} injected anomalies) to {}",
        data.rows(),
        scenario.anomalies().len(),
        out.display()
    ))
}

/// A [`Shard`] cold start under `stream`'s default `reject` policy.
fn fit(input: &Path, config: &IMrDmdConfig, model_path: &Path) -> Result<String, CliError> {
    let (data, _) = load_csv(input)?;
    let mut shard = Shard::new(STREAM_SHARD, config, GapPolicy::Reject, None);
    shard.ingest(&data, None)?;
    let model = save_model(model_path, &shard)?.model;
    Ok(format!(
        "fitted {} series × {} snapshots: {} modes across {} levels → {}",
        model.n_rows(),
        model.n_steps(),
        model.n_modes(),
        model.depth(),
        model_path.display()
    ))
}

/// One [`Shard::ingest`] round on the loaded snapshot: gaps repair under
/// the policy stored in its guard, the round runs under the model's own
/// configuration, and the CSV's first step must be the step the model
/// expects next.
fn update(
    model_path: &Path,
    input: &Path,
    model_out: Option<&Path>,
    threads: Option<usize>,
) -> Result<String, CliError> {
    let mut snap = load_model(model_path)?;
    if let Some(n) = threads {
        snap.model.set_n_threads(n);
    }
    let (batch, first_step) = load_csv(input)?;
    check_series(&snap.model, &batch)?;
    let mut shard = Shard::from_snapshot(snap, None);
    let reply = shard.ingest(&batch, Some(first_step))?;
    let out = model_out.unwrap_or(model_path);
    save_model(out, &shard)?;
    let (drift, new_modes) = reply
        .report
        .map_or((0.0, 0), |r| (r.drift, r.new_subtree_modes));
    Ok(format!(
        "absorbed {} snapshots (drift {drift:.3e}, {new_modes} new modes); model now spans {} snapshots → {}",
        batch.cols(),
        reply.steps,
        out.display()
    ))
}

fn analyze(model_path: &Path, input: &Path, band: Option<(f64, f64)>) -> Result<String, CliError> {
    let model = load_model(model_path)?.model;
    let (data, _) = load_csv(input)?;
    let (zs, band) = zscores(&model, &data, band)?;
    let mut out = String::new();
    let spectrum = mode_spectrum(model.nodes());
    let _ = writeln!(
        out,
        "model: {} modes across {} levels",
        model.n_modes(),
        model.depth()
    );
    for (level, power) in power_by_level(&spectrum) {
        let _ = writeln!(out, "  level {level}: total power {power:.3e}");
    }
    let th = ZThresholds::default();
    let states = zs.states(&th);
    let hot: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| **s == NodeState::Hot)
        .map(|(i, _)| i)
        .collect();
    let idle = states.iter().filter(|s| **s == NodeState::Idle).count();
    let _ = writeln!(
        out,
        "baseline band {:.2}–{:.2} ({} series): {} hot, {} idle, {:.0}% near baseline",
        band.0,
        band.1,
        zs.baseline_rows.len(),
        hot.len(),
        idle,
        zs.fraction_near(&th) * 100.0
    );
    if !hot.is_empty() {
        let _ = writeln!(out, "hot series: {:?}", &hot[..hot.len().min(16)]);
    }
    Ok(out)
}

fn zscores(
    model: &IMrDmd,
    data: &hpc_linalg::Mat,
    band: Option<(f64, f64)>,
) -> Result<(ZScores, (f64, f64)), CliError> {
    check_series(model, data)?;
    let mags = row_mode_magnitudes(model.nodes(), &BandFilter::all(), data.rows());
    let band = match band {
        Some(band) => band,
        None => {
            // Middle 40% of the per-series means; a series with a gap (NaN)
            // has no mean and takes no part in the band.
            let mut means: Vec<f64> = (0..data.rows())
                .map(|i| data.row(i).iter().sum::<f64>() / data.cols().max(1) as f64)
                .filter(|m| m.is_finite())
                .collect();
            if means.is_empty() {
                return Err(CliError(
                    "no series has a finite mean to set the baseline band".into(),
                ));
            }
            means.sort_by(f64::total_cmp);
            (means[means.len() * 3 / 10], means[means.len() * 7 / 10])
        }
    };
    let baseline = select_baseline_rows(data, band.0, band.1);
    if baseline.is_empty() {
        return Err(CliError(format!(
            "no series has a mean in the baseline band {:.2}–{:.2}",
            band.0, band.1
        )));
    }
    Ok((ZScores::from_baseline(&mags, &baseline), band))
}

fn render(model_path: &Path, input: &Path, layout: &str, out: &Path) -> Result<String, CliError> {
    let model = load_model(model_path)?.model;
    let (data, _) = load_csv(input)?;
    let spec = LayoutSpec::parse(layout).map_err(|e| CliError(e.to_string()))?;
    if spec.total_nodes() < model.n_rows() {
        return Err(CliError(format!(
            "layout holds {} nodes but the model tracks {} series",
            spec.total_nodes(),
            model.n_rows()
        )));
    }
    let (zs, _) = zscores(&model, &data, None)?;
    let machine = MachineSpec {
        name: spec.system.clone(),
        layout: spec,
        n_nodes: model.n_rows(),
        series_per_node: 1,
        sample_interval_s: 0.0,
    };
    let view = RackView::new(&machine)
        .with_values(&zs.z)
        .with_title(format!("{} — z-scores", machine.name));
    fs::write(out, view.to_svg())?;
    Ok(format!("rack view written to {}", out.display()))
}

/// Streams the CSV in chunks through an [`imrdmd_serve::Shard`] — the
/// daemon's tenant lifecycle, without a WAL — so cold start, guarded
/// rounds, checkpoints and `--resume` behave exactly as a served tenant's.
fn stream(a: &StreamArgs) -> Result<String, CliError> {
    let ckpt_dir = a.checkpoint_dir.as_deref();
    let (data, _) = load_csv(&a.input)?;
    let total = data.cols();
    let checkpointer = ckpt_dir
        .map(|dir| Checkpointer::for_shard(dir, a.checkpoint_every, STREAM_SHARD))
        .transpose()?;

    // Resume from the newest valid shard checkpoint if asked. It carries
    // the model (pending sub-window included) and the gap guard's
    // per-sensor carry, so the stream picks up exactly where the
    // interrupted run stopped, bitwise, under every gap policy.
    let mut out = String::new();
    let mut shard = match ckpt_dir.filter(|_| a.resume) {
        Some(dir) => {
            let rec = Shard::recover(dir, STREAM_SHARD, &a.config, a.policy, checkpointer);
            if let Some(cause) = rec.shard.status().corrupt_cause {
                return Err(CliError(format!(
                    "cannot resume from {}: {cause}",
                    dir.display()
                )));
            }
            if rec.from_checkpoint {
                let _ = writeln!(
                    out,
                    "resumed from {} at snapshot {}",
                    dir.display(),
                    rec.shard.status().steps
                );
            } else {
                let _ = writeln!(out, "no stream checkpoint in {}: cold start", dir.display());
            }
            rec.shard
        }
        None => Shard::new(STREAM_SHARD, &a.config, a.policy, checkpointer),
    };
    let skipped = shard.status().steps;
    shard
        .with_model(|model| check_series(model, &data))
        .unwrap_or(Ok(()))?;
    if skipped > total {
        return Err(CliError(format!(
            "checkpoint spans {skipped} snapshots but the input has only {total}"
        )));
    }

    // Metrics are process-wide monotonic totals; zero them at stream start so
    // the emitted JSON-lines count exactly this stream's work.
    if a.metrics_every > 0 {
        imrdmd::obs::reset();
    }
    let (chunks, repairs) = stream_chunks(&mut shard, &data, a.chunk, |done, chunks| {
        if a.metrics_every > 0 && chunks.is_multiple_of(a.metrics_every) {
            let _ = writeln!(out, "{}", MetricsLine::capture(done, chunks).to_json());
        }
    })?;

    let _ = writeln!(
        out,
        "streamed {chunks} chunks ({} snapshots, policy {}): {} gaps, {} repaired{}",
        total - skipped,
        a.policy,
        repairs.gaps,
        repairs.repaired,
        if repairs.masked_rows.is_empty() {
            String::new()
        } else {
            format!(", {} rows masked", repairs.masked_rows.len())
        }
    );
    if let Some(dir) = ckpt_dir {
        let retained = shard_checkpoint_history(dir, STREAM_SHARD)?;
        if let Some((steps, _)) = retained.first() {
            let _ = writeln!(
                out,
                "newest checkpoint at snapshot {steps} ({} retained in {})",
                retained.len(),
                dir.display()
            );
        }
    }
    let model = save_model(&a.model, &shard)?.model;
    let _ = writeln!(
        out,
        "health: {}\nmodel now spans {} snapshots ({} modes, {} pending) → {}",
        model.health().summary(),
        model.n_steps(),
        model.n_modes(),
        model.pending_len(),
        a.model.display()
    );
    Ok(out)
}

/// The one chunked stream loop, behind `stream` and `metrics`: feeds
/// `data` from the shard's current step on, `chunk` snapshots per guarded
/// round, and calls `after_chunk(step, chunks)` after each round. Returns
/// the chunk count and the merged gap repairs.
fn stream_chunks(
    shard: &mut Shard,
    data: &hpc_linalg::Mat,
    chunk: usize,
    mut after_chunk: impl FnMut(usize, usize),
) -> Result<(usize, RepairReport), CliError> {
    let total = data.cols();
    let mut done = shard.status().steps;
    let mut repairs = RepairReport::default();
    let mut chunks = 0usize;
    while done < total {
        let hi = done.saturating_add(chunk).min(total);
        let reply = shard.ingest(&data.cols_range(done, hi), Some(done))?;
        repairs.merge(&reply.repairs);
        done = hi;
        chunks += 1;
        after_chunk(done, chunks);
    }
    Ok((chunks, repairs))
}

/// Streams `input` through `stream`'s loop — a [`Shard`] with no
/// checkpointer, under `stream`'s default `reject` gap policy — and prints
/// the final process metrics snapshot. Metrics are process-local, so the
/// subcommand generates its own workload rather than reading a model file.
fn metrics(
    input: &Path,
    config: &IMrDmdConfig,
    chunk: usize,
    format: MetricsFormat,
) -> Result<String, CliError> {
    let (data, _) = load_csv(input)?;
    imrdmd::obs::reset();
    let mut shard = Shard::new(STREAM_SHARD, config, GapPolicy::Reject, None);
    stream_chunks(&mut shard, &data, chunk, |_, _| {})?;
    let snap = MetricsSnapshot::capture();
    Ok(match format {
        MetricsFormat::Prom => snap.to_prometheus(),
        MetricsFormat::Json => format!("{}\n", snap.to_json()),
    })
}

fn info(model_path: &Path) -> Result<String, CliError> {
    let model = load_model(model_path)?.model;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} series × {} snapshots, root rank {}, {} drift samples{}",
        model.n_rows(),
        model.n_steps(),
        model.root_rank(),
        model.drift_log().len(),
        if model.is_stale() { " [STALE]" } else { "" }
    );
    let _ = write!(out, "{}", model.as_mrdmd().tree_summary());
    // Measured by encoding the archive each tier would write.
    let measure = |tier| encode_archive(&model, tier, &mut std::io::sink());
    let (f64, q16) = (measure(QuantTier::F64)?, measure(QuantTier::Q16)?);
    let _ = writeln!(
        out,
        "storage: raw {:.2} MB → archive f64 {:.3} MB ({:.1}x), q16 {:.3} MB ({:.1}x)",
        f64.raw_bytes() as f64 / 1e6,
        f64.bytes as f64 / 1e6,
        f64.ratio(),
        q16.bytes as f64 / 1e6,
        q16.ratio()
    );
    Ok(out)
}

fn health(model_path: &Path) -> Result<String, CliError> {
    let model = load_model(model_path)?.model;
    let h = model.health();
    let mut out = String::new();
    let _ = writeln!(out, "{}", h.summary());
    let _ = writeln!(
        out,
        "root: {}{}",
        h.root.label(),
        h.root
            .cause()
            .map(|c| format!(" — {c}"))
            .unwrap_or_default()
    );
    for l in &h.levels {
        let _ = writeln!(
            out,
            "  level {}: {} healthy, {} degraded",
            l.level, l.healthy, l.degraded
        );
    }
    let _ = writeln!(
        out,
        "coverage: {:.1}% ({} of {} windows served by a live fit)",
        h.coverage * 100.0,
        h.healthy_nodes,
        h.healthy_nodes + h.degraded_nodes
    );
    let _ = writeln!(
        out,
        "solver: eig {} iterations / {} restarts, inner svd {} sweeps, isvd drift {:.3e} ({} breaches)",
        h.solver.last_eig_iterations,
        h.solver.last_eig_restarts,
        h.solver.last_inner_svd_sweeps,
        h.solver.isvd_drift,
        h.solver.isvd_drift_breaches
    );
    if let Some(e) = &h.last_error {
        let _ = writeln!(out, "last error: {e}");
    }
    Ok(out)
}

fn archive(
    model_path: &Path,
    tier: QuantTier,
    out: Option<&Path>,
    store_dir: Option<&Path>,
) -> Result<String, CliError> {
    let model = load_model(model_path)?.model;
    // --out wins; otherwise the store root's archives/ subdir; otherwise a
    // sibling of the model file.
    let path = match (out, store_dir) {
        (Some(p), _) => p.to_path_buf(),
        (None, Some(store)) => {
            let dir = store.join("archives");
            fs::create_dir_all(&dir)
                .map_err(|e| CliError(format!("cannot create {}: {e}", dir.display())))?;
            let stem = model_path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("model");
            dir.join(format!("{stem}.{}.arch", tier.as_str()))
        }
        (None, None) => model_path.with_extension("arch"),
    };
    let info = write_archive(&model, &path, tier)
        .map_err(|e| CliError(format!("cannot write archive: {e}")))?;
    Ok(format!(
        "archived {} series × {} snapshots at tier {}: {} node blocks, {:.3} MB ({:.1}x vs raw) → {}",
        info.n_rows,
        info.n_steps,
        info.tier,
        info.n_nodes,
        info.bytes as f64 / 1e6,
        info.ratio(),
        path.display()
    ))
}

/// Picks the newest (by mtime) `*.arch` file under `dir`.
fn newest_archive(dir: &Path) -> Result<std::path::PathBuf, CliError> {
    let found = imrdmd::storage::list_dir(dir, |name| name.ends_with(".arch").then_some(()))
        .map_err(|e| CliError(format!("cannot read {}: {e}", dir.display())))?;
    let mut newest: Option<(std::time::SystemTime, std::path::PathBuf)> = None;
    for ((), path) in found {
        let modified = fs::metadata(&path)?.modified()?;
        if newest.as_ref().is_none_or(|(t, _)| modified > *t) {
            newest = Some((modified, path));
        }
    }
    newest
        .map(|(_, p)| p)
        .ok_or_else(|| CliError(format!("no .arch files under {}", dir.display())))
}

fn replay(
    archive: Option<&Path>,
    store_dir: Option<&Path>,
    from: Option<usize>,
    to: Option<usize>,
    out: Option<&Path>,
) -> Result<String, CliError> {
    let path = match (archive, store_dir) {
        (Some(p), _) => p.to_path_buf(),
        (None, Some(store)) => newest_archive(&store.join("archives"))?,
        (None, None) => {
            return Err(CliError(
                "replay needs --archive FILE or --store-dir DIR".into(),
            ))
        }
    };
    let mut reader = ArchiveReader::open(&path)
        .map_err(|e| CliError(format!("cannot open archive {}: {e}", path.display())))?;
    let info = *reader.info();
    let t0 = from.unwrap_or(0);
    let t1 = to.unwrap_or(info.n_steps);
    let data = reader
        .replay(t0, t1)
        .map_err(|e| CliError(format!("replay failed: {e}")))?;
    let mut report = String::new();
    let _ = writeln!(
        report,
        "replayed [{t0}, {t1}) of {} snapshots from {} (tier {}, {} of {} blocks read)",
        info.n_steps,
        path.display(),
        info.tier,
        reader.blocks_read(),
        info.n_nodes
    );
    if let Some(out) = out {
        let mut file = std::io::BufWriter::new(fs::File::create(out)?);
        write_snapshots_csv(&mut file, &data, t0)?;
        use std::io::Write as _;
        file.flush()?;
        let _ = writeln!(
            report,
            "wrote {} series × {} snapshots to {}",
            data.rows(),
            data.cols(),
            out.display()
        );
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_args;
    use std::path::PathBuf;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("imrdmd-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn cli(cmd: &str) -> Result<String, CliError> {
        run(&parse_args(&argv(cmd))?)
    }

    fn write_csv(path: &Path, data: &hpc_linalg::Mat, first_step: usize) {
        let mut f = fs::File::create(path).unwrap();
        write_snapshots_csv(&mut f, data, first_step).unwrap();
    }

    /// `synth --nodes 8 --seed 3` over `steps` snapshots, written to `name`.
    fn synth_csv(name: &str, steps: usize) -> (PathBuf, hpc_linalg::Mat) {
        let csv = tmp(name);
        cli(&format!(
            "synth --nodes 8 --steps {steps} --seed 3 --out {}",
            csv.display()
        ))
        .unwrap();
        let data = load_csv(&csv).unwrap().0;
        (csv, data)
    }

    #[test]
    fn fit_and_update_reject_gaps_like_stream() {
        let (csv, clean) = synth_csv("gaps.csv", 700);
        let model = tmp("gaps.ckpt");
        let _ = fs::remove_file(&model);
        let fit = format!(
            "fit --input {} --dt 20 --levels 3 --model {}",
            csv.display(),
            model.display()
        );
        let stream = format!(
            "stream --input {} --dt 20 --levels 3 --chunk 100 --model {}",
            csv.display(),
            model.display()
        );

        // Two empty cells in one row of a 600-step file: `fit` fails exactly
        // like `stream`, and writes nothing.
        let mut gappy = clean.cols_range(0, 600);
        gappy[(3, 9)] = f64::NAN;
        gappy[(3, 10)] = f64::NAN;
        write_csv(&csv, &gappy, 0);
        let err = cli(&fit).unwrap_err();
        assert!(
            err.0
                .contains("non-finite value at sensor 3, batch column 9"),
            "{err}"
        );
        assert_eq!(err.0, cli(&stream).unwrap_err().0);
        assert!(!model.exists(), "a rejected fit writes no model");

        // A 100-step batch in which sensor 2 misses every 10th reading:
        // `update` fails like `stream`'s last chunk, and the file stays.
        let mut batch = clean.cols_range(600, 700);
        for j in (0..100).step_by(10) {
            batch[(2, j)] = f64::NAN;
        }
        write_csv(&csv, &clean.cols_range(0, 600), 0);
        cli(&fit).unwrap();
        let fitted = fs::read(&model).unwrap();
        let batch_csv = tmp("gaps_batch.csv");
        write_csv(&batch_csv, &batch, 600);
        let update = format!(
            "update --model {} --input {}",
            model.display(),
            batch_csv.display()
        );
        let err = cli(&update).unwrap_err();
        assert!(
            err.0
                .contains("non-finite value at sensor 2, batch column 0"),
            "{err}"
        );
        write_csv(&csv, &clean.cols_range(0, 600).hstack(&batch), 0);
        assert_eq!(err.0, cli(&stream).unwrap_err().0);
        assert_eq!(fs::read(&model).unwrap(), fitted, "rejected update");

        // A model streamed under `hold` keeps holding through `update`.
        write_csv(&csv, &clean.cols_range(0, 600), 0);
        cli(&format!("{stream} --gap-policy hold")).unwrap();
        let r = cli(&update).unwrap();
        assert!(r.contains("absorbed 100 snapshots"), "{r}");
        let snap = load_model(&model).unwrap();
        assert_eq!(snap.guard.policy(), GapPolicy::HoldLast);
        assert_eq!((snap.rounds, snap.model.n_steps()), (7, 700));
    }

    #[test]
    fn update_refuses_a_replayed_batch() {
        let (csv, data) = synth_csv("replayed.csv", 700);
        let model = tmp("replayed.ckpt");
        let batch = tmp("replayed_batch.csv");
        write_csv(&csv, &data.cols_range(0, 600), 0);
        write_csv(&batch, &data.cols_range(600, 700), 600);
        cli(&format!(
            "fit --input {} --dt 20 --levels 3 --model {}",
            csv.display(),
            model.display()
        ))
        .unwrap();
        let update = format!(
            "update --model {} --input {}",
            model.display(),
            batch.display()
        );
        let r = cli(&update).unwrap();
        assert!(r.contains("absorbed 100 snapshots"), "{r}");
        assert!(r.contains("model now spans 700 snapshots"), "{r}");
        let once = fs::read(&model).unwrap();
        let err = cli(&update).unwrap_err();
        assert_eq!(
            err.0,
            "out-of-order batch: shard expects step 700, body claims 600"
        );
        assert_eq!(fs::read(&model).unwrap(), once, "absorbed twice");
    }

    #[test]
    fn damaged_model_file_fails_its_checksum() {
        let (csv, data) = synth_csv("damaged.csv", 300);
        let model = tmp("damaged.ckpt");
        cli(&format!(
            "fit --input {} --dt 20 --levels 3 --model {}",
            csv.display(),
            model.display()
        ))
        .unwrap();
        let info = format!("info --model {}", model.display());
        cli(&info).unwrap();
        // The model's state as v1 JSON, for the re-checksummed edit below.
        let good = serde_json::to_string(&load_model(&model).unwrap()).unwrap();
        // Change one byte of the payload: the last that reads as a digit.
        let mut bytes = fs::read(&model).unwrap();
        let at = bytes.iter().rposition(u8::is_ascii_digit).unwrap();
        bytes[at] = if bytes[at] == b'9' {
            b'8'
        } else {
            bytes[at] + 1
        };
        fs::write(&model, &bytes).unwrap();
        let err = cli(&info).unwrap_err();
        assert!(err.0.contains("checkpoint checksum mismatch"), "{err}");
        // A payload re-checksummed around `"nyquist_factor":0` passes the
        // header checks; the model check refuses it with a typed error.
        let payload = good.replacen("\"nyquist_factor\":4", "\"nyquist_factor\":0", 1);
        let crc = imrdmd::storage::crc32(payload.as_bytes());
        let header = format!("IMRDMD-CKPT v1 {} {crc:08x}\n", payload.len());
        fs::write(&model, header + &payload).unwrap();
        let err = cli(&info).unwrap_err();
        assert!(
            err.0
                .starts_with(&format!("cannot read model {}: ", model.display())),
            "{err}"
        );
        assert!(err.0.contains("checkpoint decode failed: "), "{err}");
        assert!(err.0.contains("nyquist_factor"), "{err}");
        // A bare `IMrDmd` JSON (the model file of older releases) has no
        // checkpoint header: a named error, not a panic.
        let bare = IMrDmd::fit(&data, &IMrDmdConfig::default());
        fs::write(&model, serde_json::to_string(&bare).unwrap()).unwrap();
        let err = cli(&info).unwrap_err();
        assert!(err.0.starts_with("cannot read model"), "{err}");
        assert!(err.0.contains("bad checkpoint header"), "{err}");
    }

    #[test]
    fn fit_then_updates_write_the_file_stream_writes() {
        let (csv, data) = synth_csv("chunked.csv", 600);
        let store = tmp("chunked_store");
        let _ = fs::remove_dir_all(&store);
        let (streamed, stepped) = (tmp("chunked_stream.ckpt"), tmp("chunked_fit.ckpt"));
        cli(&format!(
            "stream --input {} --dt 20 --levels 3 --chunk 100 --store-dir {} --model {}",
            csv.display(),
            store.display(),
            streamed.display()
        ))
        .unwrap();

        let chunk = tmp("chunked_part.csv");
        write_csv(&chunk, &data.cols_range(0, 100), 0);
        let fit = format!(
            "fit --input {} --dt 20 --levels 3 --model {}",
            chunk.display(),
            stepped.display()
        );
        cli(&fit).unwrap();
        // The model state is what a bare `IMrDmd::fit` computes.
        let Command::Fit { config, .. } = parse_args(&argv(&fit)).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(
            serde_json::to_string(&load_model(&stepped).unwrap().model).unwrap(),
            serde_json::to_string(&IMrDmd::fit(&data.cols_range(0, 100), &config)).unwrap()
        );
        for lo in (100..600).step_by(100) {
            write_csv(&chunk, &data.cols_range(lo, lo + 100), lo);
            cli(&format!(
                "update --model {} --input {}",
                stepped.display(),
                chunk.display()
            ))
            .unwrap();
        }
        let streamed = fs::read(&streamed).unwrap();
        assert!(
            fs::read(&stepped).unwrap() == streamed,
            "fit + updates ≠ stream"
        );

        // A store checkpoint is a `--model` as it stands.
        let ckpts = shard_checkpoint_history(&store.join("checkpoints"), STREAM_SHARD).unwrap();
        let (steps, newest) = &ckpts[0];
        assert_eq!(*steps, 600);
        assert!(fs::read(newest).unwrap() == streamed);
        let r = cli(&format!(
            "analyze --model {} --input {}",
            newest.display(),
            csv.display()
        ))
        .unwrap();
        assert!(r.contains("baseline band"), "{r}");
    }

    #[test]
    fn synth_fit_update_analyze_info_pipeline() {
        let csv = tmp("pipeline.csv");
        let csv2 = tmp("pipeline2.csv");
        let model = tmp("pipeline.ckpt");

        // synth
        let r = run(&parse_args(&argv(&format!(
            "synth --nodes 24 --steps 700 --seed 9 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("24 series"));

        // split into initial + batch by rewriting CSVs
        let data = load_csv(&csv).unwrap().0;
        let mut f = fs::File::create(&csv).unwrap();
        write_snapshots_csv(&mut f, &data.cols_range(0, 500), 0).unwrap();
        let mut f = fs::File::create(&csv2).unwrap();
        write_snapshots_csv(&mut f, &data.cols_range(500, 700), 500).unwrap();

        // fit
        let r = run(&parse_args(&argv(&format!(
            "fit --input {} --dt 20 --levels 4 --model {}",
            csv.display(),
            model.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("500 snapshots"), "{r}");

        // update
        let r = run(&parse_args(&argv(&format!(
            "update --model {} --input {}",
            model.display(),
            csv2.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("absorbed 200 snapshots"), "{r}");
        assert!(r.contains("700 snapshots"), "{r}");

        // analyze (auto band)
        let mut full = fs::File::create(&csv).unwrap();
        write_snapshots_csv(&mut full, &data, 0).unwrap();
        let r = run(&parse_args(&argv(&format!(
            "analyze --model {} --input {}",
            model.display(),
            csv.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("baseline band"), "{r}");
        assert!(r.contains("near baseline"), "{r}");

        // info
        let r =
            run(&parse_args(&argv(&format!("info --model {}", model.display()))).unwrap()).unwrap();
        assert!(r.contains("24 series × 700 snapshots"), "{r}");
        assert!(r.contains("storage:"), "{r}");

        // health — a clean fit reports every window healthy.
        let r = run(&parse_args(&argv(&format!("health --model {}", model.display()))).unwrap())
            .unwrap();
        assert!(r.contains("root healthy"), "{r}");
        assert!(r.contains("coverage: 100.0%"), "{r}");
        assert!(r.contains("level 1: 1 healthy, 0 degraded"), "{r}");
        assert!(r.contains("solver: eig"), "{r}");
        assert!(!r.contains("last error"), "{r}");
    }

    #[test]
    fn render_produces_svg() {
        let csv = tmp("render.csv");
        let model = tmp("render.ckpt");
        let svg = tmp("render.svg");
        run(&parse_args(&argv(&format!(
            "synth --nodes 16 --steps 300 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        run(&parse_args(&argv(&format!(
            "fit --input {} --dt 20 --levels 3 --model {}",
            csv.display(),
            model.display()
        )))
        .unwrap())
        .unwrap();
        let cmd = Command::Render {
            model: model.clone(),
            input: csv.clone(),
            layout: "mini 1 1 row0-0:0-3 1 c:0 1 s:0-3 1 b:0 n:0".into(),
            out: svg.clone(),
        };
        let r = run(&cmd).unwrap();
        assert!(r.contains("rack view written"));
        let contents = fs::read_to_string(&svg).unwrap();
        assert!(contents.contains("</svg>"));
    }

    #[test]
    fn update_rejects_mismatched_series() {
        let csv = tmp("mismatch.csv");
        let csv_bad = tmp("mismatch_bad.csv");
        let model = tmp("mismatch.ckpt");
        run(&parse_args(&argv(&format!(
            "synth --nodes 8 --steps 300 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        run(&parse_args(&argv(&format!(
            "fit --input {} --dt 20 --levels 3 --model {}",
            csv.display(),
            model.display()
        )))
        .unwrap())
        .unwrap();
        run(&parse_args(&argv(&format!(
            "synth --nodes 9 --steps 100 --out {}",
            csv_bad.display()
        )))
        .unwrap())
        .unwrap();
        let err = run(&Command::Update {
            model: model.clone(),
            input: csv_bad.clone(),
            model_out: None,
            threads: None,
        })
        .unwrap_err();
        assert!(err.0.contains("9 series"), "{err}");
    }

    #[test]
    fn missing_files_are_clean_errors() {
        let err = run(&Command::Info {
            model: tmp("does-not-exist.ckpt"),
        })
        .unwrap_err();
        assert!(err.0.contains("cannot read model"));
        let err = run(&parse_args(&argv(&format!(
            "fit --input {} --dt 1 --levels 3 --model {}",
            tmp("missing.csv").display(),
            tmp("m.ckpt").display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("cannot open"));
    }

    #[test]
    fn fit_strategy_sketched_is_seed_reproducible() {
        let csv = tmp("sketched.csv");
        let m1 = tmp("sketched1.ckpt");
        let m2 = tmp("sketched2.ckpt");
        run(&parse_args(&argv(&format!(
            "synth --nodes 16 --steps 400 --seed 11 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        // Two sketched fits with the same seed write identical models.
        for m in [&m1, &m2] {
            let r = run(&parse_args(&argv(&format!(
                "fit --input {} --dt 20 --levels 4 --fit-strategy sketched \
                 --sketch-seed 5 --model {}",
                csv.display(),
                m.display()
            )))
            .unwrap())
            .unwrap();
            assert!(r.contains("fitted 16 series"), "{r}");
        }
        assert_eq!(
            fs::read(&m1).unwrap(),
            fs::read(&m2).unwrap(),
            "sketched fit must be seed-reproducible"
        );
        // Unknown strategies are a clean error.
        let err = parse_args(&argv(&format!(
            "fit --input {} --dt 20 --fit-strategy frob --model {}",
            csv.display(),
            m1.display()
        )))
        .unwrap_err();
        assert!(err.0.contains("unknown --fit-strategy"), "{err}");
    }

    #[test]
    fn stream_with_gaps_checkpoints_and_resumes() {
        let csv = tmp("stream.csv");
        let model_a = tmp("stream_a.ckpt");
        let model_b = tmp("stream_b.ckpt");
        let ckpts = tmp("stream_ckpts");
        let _ = fs::remove_dir_all(&ckpts);

        run(&parse_args(&argv(&format!(
            "synth --nodes 16 --steps 600 --seed 3 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();

        // Punch NaN gaps into the CSV, then stream it with hold repair.
        let mut data = load_csv(&csv).unwrap().0;
        data[(2, 100)] = f64::NAN;
        data[(2, 101)] = f64::NAN;
        data[(7, 350)] = f64::NAN;
        let mut f = fs::File::create(&csv).unwrap();
        write_snapshots_csv(&mut f, &data, 0).unwrap();

        let r = run(&parse_args(&argv(&format!(
            "stream --input {} --dt 20 --chunk 100 --levels 4 --gap-policy hold \
             --store-dir {} --checkpoint-every 2 --model {}",
            csv.display(),
            ckpts.display(),
            model_a.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("streamed 6 chunks"), "{r}");
        assert!(r.contains("3 gaps, 3 repaired"), "{r}");
        assert!(r.contains("600 snapshots"), "{r}");
        assert!(
            r.contains("newest checkpoint at snapshot 600 (3 retained"),
            "{r}"
        );
        assert!(r.contains("health: root healthy"), "{r}");

        // Resume: the newest checkpoint spans all 600 snapshots, so a
        // `--resume` rerun is a no-op that duplicates no work…
        let r = run(&parse_args(&argv(&format!(
            "stream --input {} --dt 20 --chunk 100 --gap-policy hold \
             --store-dir {} --resume --model {}",
            csv.display(),
            ckpts.display(),
            model_b.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("at snapshot 600"), "{r}");
        assert!(r.contains("streamed 0 chunks (0 snapshots"), "{r}");

        // …but with 200 fresh columns appended it picks up at 600 exactly.
        let longer = data.hstack(&data.cols_range(0, 200));
        let mut f = fs::File::create(&csv).unwrap();
        write_snapshots_csv(&mut f, &longer, 0).unwrap();
        let r = run(&parse_args(&argv(&format!(
            "stream --input {} --dt 20 --chunk 100 --gap-policy hold \
             --store-dir {} --resume --model {}",
            csv.display(),
            ckpts.display(),
            model_b.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("at snapshot 600"), "{r}");
        assert!(r.contains("streamed 2 chunks (200 snapshots"), "{r}");
        assert!(r.contains("model now spans 800 snapshots"), "{r}");

        // A reject-policy stream over gappy data is a clean error.
        let err = run(&parse_args(&argv(&format!(
            "stream --input {} --dt 20 --chunk 100 --model {}",
            csv.display(),
            model_a.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("non-finite"), "{err}");
    }

    #[test]
    fn resume_over_bare_model_checkpoints_cold_starts() {
        let csv = tmp("legacy.csv");
        let model = tmp("legacy.ckpt");
        let store = tmp("legacy_store");
        let ckpts = store.join("checkpoints");
        let _ = fs::remove_dir_all(&store);
        fs::create_dir_all(&ckpts).unwrap();
        run(&parse_args(&argv(&format!(
            "synth --nodes 8 --steps 300 --seed 4 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        // A bare-model checkpoint under the retired unsharded name.
        let data = load_csv(&csv).unwrap().0;
        let cfg = IMrDmdConfig {
            mr: MrDmdConfig {
                dt: 20.0,
                max_levels: 3,
                ..MrDmdConfig::default()
            },
            ..IMrDmdConfig::default()
        };
        let bare = IMrDmd::fit(&data.cols_range(0, 200), &cfg);
        save_state_checkpoint(&bare, &ckpts.join("ckpt-000000000200.ckpt")).unwrap();

        let r = run(&parse_args(&argv(&format!(
            "stream --input {} --dt 20 --chunk 100 --levels 3 \
             --store-dir {} --resume --model {}",
            csv.display(),
            store.display(),
            model.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("no stream checkpoint in"), "{r}");
        assert!(r.contains("cold start"), "{r}");
        assert!(r.contains("streamed 3 chunks (300 snapshots"), "{r}");
    }

    #[test]
    fn stream_emits_metrics_lines_and_metrics_subcommand_renders() {
        let csv = tmp("metrics.csv");
        let model = tmp("metrics.ckpt");
        run(&parse_args(&argv(&format!(
            "synth --nodes 12 --steps 400 --seed 5 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();

        let r = run(&parse_args(&argv(&format!(
            "stream --input {} --dt 20 --chunk 100 --levels 3 --metrics-every 2 --model {}",
            csv.display(),
            model.display()
        )))
        .unwrap())
        .unwrap();
        // 4 chunks, a line every 2nd → 2 JSON lines, each a parseable
        // MetricsLine carrying the running counters.
        let lines: Vec<&str> = r.lines().filter(|l| l.starts_with('{')).collect();
        assert_eq!(lines.len(), 2, "{r}");
        for line in &lines {
            let parsed: MetricsLine = serde_json::from_str(line).unwrap();
            // Counters are process-global: other tests may run concurrently,
            // so assert lower bounds only.
            assert!(parsed.snapshot.counter("round.count").unwrap_or(0) >= 1);
            assert!(parsed.snapshot.counter("gemm.calls").unwrap_or(0) >= 1);
        }
        let last: MetricsLine = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(last.step, 400);
        assert_eq!(last.round, 4);

        // The metrics subcommand over the same CSV, both formats.
        let r = run(&parse_args(&argv(&format!(
            "metrics --input {} --dt 20 --levels 3 --chunk 100",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        let snap: MetricsSnapshot = serde_json::from_str(r.trim()).unwrap();
        assert!(snap.counter("gemm.calls").unwrap_or(0) >= 1);
        let r = run(&parse_args(&argv(&format!(
            "metrics --input {} --dt 20 --levels 3 --chunk 100 --format prom",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("# TYPE gemm_calls counter"), "{r}");
        assert!(r.contains("# TYPE gemm_ns histogram"), "{r}");

        let err = parse_args(&argv(&format!(
            "metrics --input {} --dt 20 --format yaml",
            csv.display()
        )))
        .unwrap_err();
        assert!(err.0.contains("unknown --format"), "{err}");
    }

    #[test]
    fn stream_flag_validation() {
        let err = parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json --gap-policy frob",
        ))
        .unwrap_err();
        assert!(err.0.contains("unknown --gap-policy"), "{err}");
        let err = parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json --resume",
        ))
        .unwrap_err();
        assert!(err.0.contains("--resume needs --store-dir"), "{err}");
        let err = parse_args(&argv("stream --input a.csv --dt 0 --model m.json")).unwrap_err();
        assert!(err.0.contains("--dt must be positive"), "{err}");
        let err = parse_args(&argv(
            "stream --input a.csv --dt 20 --model m.json --chunk 1",
        ))
        .unwrap_err();
        assert!(err.0.contains("--chunk must be at least 2"), "{err}");
    }

    /// Synthesises a CSV, fits a model on it, then rewrites the CSV with
    /// empty fields (the documented gap encoding) at `gaps`.
    fn fitted_with_gappy_csv(name: &str, gaps: &[(usize, usize)]) -> (PathBuf, PathBuf) {
        let csv = tmp(&format!("{name}.csv"));
        let model = tmp(&format!("{name}.ckpt"));
        for cmd in [
            format!(
                "synth --nodes 12 --steps 300 --seed 8 --out {}",
                csv.display()
            ),
            format!(
                "fit --input {} --dt 20 --levels 3 --model {}",
                csv.display(),
                model.display()
            ),
        ] {
            run(&parse_args(&argv(&cmd)).unwrap()).unwrap();
        }
        let mut data = load_csv(&csv).unwrap().0;
        for &(i, j) in gaps {
            data[(i, j)] = f64::NAN;
        }
        let mut f = fs::File::create(&csv).unwrap();
        write_snapshots_csv(&mut f, &data, 0).unwrap();
        (csv, model)
    }

    #[test]
    fn analyze_and_render_band_skips_series_with_gaps() {
        let (csv, model) = fitted_with_gappy_csv("gappy_analyze", &[(2, 4)]);
        let r = run(&parse_args(&argv(&format!(
            "analyze --model {} --input {}",
            model.display(),
            csv.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("baseline band"), "{r}");
        let svg = tmp("gappy_analyze.svg");
        let r = run(&Command::Render {
            model: model.clone(),
            input: csv,
            layout: "mini 1 1 row0-0:0-3 1 c:0 1 s:0-2 1 b:0 n:0".into(),
            out: svg,
        })
        .unwrap();
        assert!(r.contains("rack view written"), "{r}");

        // With a gap in every series no mean is finite: a typed error.
        let every_row: Vec<(usize, usize)> = (0..12).map(|i| (i, 7)).collect();
        let (csv, model) = fitted_with_gappy_csv("gappy_analyze_all", &every_row);
        let err = run(&parse_args(&argv(&format!(
            "analyze --model {} --input {}",
            model.display(),
            csv.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("no series has a finite mean"), "{err}");
    }

    #[test]
    fn metrics_rejects_gaps_like_stream() {
        let (csv, model) = fitted_with_gappy_csv("gappy_metrics", &[(2, 4)]);
        let err = run(&parse_args(&argv(&format!(
            "metrics --input {} --dt 20 --levels 3 --chunk 100",
            csv.display()
        )))
        .unwrap())
        .unwrap_err();
        assert!(err.0.contains("non-finite"), "{err}");
        let stream_err = run(&parse_args(&argv(&format!(
            "stream --input {} --dt 20 --levels 3 --chunk 100 --model {}",
            csv.display(),
            model.display()
        )))
        .unwrap())
        .unwrap_err();
        assert_eq!(err.0, stream_err.0);
    }

    #[test]
    fn render_rejects_undersized_layout() {
        let csv = tmp("small_layout.csv");
        let model = tmp("small_layout.ckpt");
        run(&parse_args(&argv(&format!(
            "synth --nodes 16 --steps 200 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        run(&parse_args(&argv(&format!(
            "fit --input {} --dt 20 --levels 3 --model {}",
            csv.display(),
            model.display()
        )))
        .unwrap())
        .unwrap();
        let err = run(&Command::Render {
            model,
            input: csv,
            layout: "tiny 1 1 row0-0:0-1 1 c:0 1 s:0 1 b:0 n:0".into(),
            out: tmp("never.svg"),
        })
        .unwrap_err();
        assert!(err.0.contains("layout holds 2 nodes"), "{err}");
    }

    #[test]
    fn archive_replay_roundtrip_is_bitwise_at_f64() {
        let csv = tmp("arch.csv");
        let model_path = tmp("arch.ckpt");
        let store = tmp("arch_store");
        let out_csv = tmp("arch_replay.csv");
        let _ = fs::remove_dir_all(&store);

        run(&parse_args(&argv(&format!(
            "synth --nodes 12 --steps 400 --seed 7 --out {}",
            csv.display()
        )))
        .unwrap())
        .unwrap();
        run(&parse_args(&argv(&format!(
            "fit --input {} --dt 20 --levels 4 --model {}",
            csv.display(),
            model_path.display()
        )))
        .unwrap())
        .unwrap();

        // Archive into the store root at the lossless tier.
        let r = run(&parse_args(&argv(&format!(
            "archive --model {} --tier f64 --store-dir {}",
            model_path.display(),
            store.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("tier f64"), "{r}");
        assert!(store.join("archives/arch.f64.arch").is_file(), "{r}");

        // Replay a sub-range from the store's newest archive to CSV…
        let r = run(&parse_args(&argv(&format!(
            "replay --store-dir {} --from 100 --to 300 --out {}",
            store.display(),
            out_csv.display()
        )))
        .unwrap())
        .unwrap();
        assert!(r.contains("replayed [100, 300) of 400 snapshots"), "{r}");
        assert!(r.contains("12 series × 200 snapshots"), "{r}");

        // …and it matches the in-memory reconstruction bit for bit (the CSV
        // writes shortest-roundtrip f64, so equality survives the text hop).
        let replayed = load_csv(&out_csv).unwrap().0;
        let model = load_model(&model_path).unwrap().model;
        let expect = model.reconstruct_range(100, 300);
        assert_eq!((replayed.rows(), replayed.cols()), (12, 200));
        for i in 0..expect.rows() {
            for j in 0..expect.cols() {
                assert_eq!(
                    replayed[(i, j)].to_bits(),
                    expect[(i, j)].to_bits(),
                    "replay must be bitwise at f64 (row {i}, col {j})"
                );
            }
        }

        // Flag validation is clean on both subcommands.
        let err = parse_args(&argv(&format!(
            "archive --model {} --tier f16",
            model_path.display()
        )))
        .unwrap_err();
        assert!(err.0.contains("unknown --tier"), "{err}");
        let err = run(&parse_args(&argv("replay --from 0")).unwrap()).unwrap_err();
        assert!(err.0.contains("--archive FILE or --store-dir DIR"), "{err}");
    }

    #[test]
    fn serve_rejects_bad_flags() {
        let bad_dt = parse_args(&argv("serve --addr 127.0.0.1:0 --dt 0 --levels 4")).unwrap_err();
        assert!(bad_dt.0.contains("--dt"), "{bad_dt}");
        let bad_policy = parse_args(&argv(
            "serve --addr 127.0.0.1:0 --dt 20 --levels 4 --gap-policy yolo",
        ))
        .unwrap_err();
        assert!(bad_policy.0.contains("gap-policy"), "{bad_policy}");
        let bad_body =
            parse_args(&argv("serve --addr 127.0.0.1:0 --dt 20 --max-body-mb 0")).unwrap_err();
        assert!(
            bad_body.0.contains("--max-body-mb must be at least 1"),
            "{bad_body}"
        );
    }

    #[test]
    fn serve_binds_answers_healthz_and_shuts_down() {
        use std::io::{Read as _, Write as _};

        let Command::Serve { addr, config } = parse_args(&argv(
            "serve --addr 127.0.0.1:0 --dt 20 --levels 4 --threads 1 \
             --max-body-mb 4 --max-tenants 16 --max-inflight 16",
        ))
        .unwrap() else {
            panic!("wrong variant");
        };
        let (server, restored, corrupt) = imrdmd_serve::Server::bind(&addr, config).unwrap();
        assert_eq!((restored, corrupt), (0, 0));
        let addr = server.local_addr();
        let handle = server.handle();
        let worker = std::thread::spawn(move || server.run());

        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.contains("\"status\":\"ok\""), "{reply}");

        handle.shutdown();
        worker.join().unwrap().unwrap();
    }
}
