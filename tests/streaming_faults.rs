//! Hardened-ingest integration tests: corrupted telemetry streams survive
//! end to end, checkpoints restore bitwise, and every failure mode the PR
//! fixed has a regression test that fails on the pre-PR code.

use imrdmd_serve::{Shard, ShardSnapshot};
use mrdmd_suite::prelude::*;
use mrdmd_suite::telemetry::write_snapshots_csv;
use std::fs;
use std::path::{Path, PathBuf};

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

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("imrdmd-streaming-faults");
    fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The acceptance e2e: a scenario stream corrupted by the fault injector
/// (NaN runs, dropped samples, whole-sensor dropout) flows through the
/// guarded ingest to completion — no panic, and the reconstruction holds no
/// NaN because the guard repaired every hole before it reached the model.
#[test]
fn faulty_stream_survives_guarded_ingest_end_to_end() {
    let n_nodes = 24;
    let total = 1200;
    let chunk = 150;
    let mut machine = theta().scaled(n_nodes);
    machine.series_per_node = 1;
    let scenario = Scenario::sc_log(machine, total, 11);
    let c = cfg(scenario.dt(), 4);

    let faults = FaultConfig {
        seed: 4242,
        drop_prob: 0.003,
        nan_run_prob: 0.8,
        nan_run_max_len: 20,
        sensor_dropout_prob: 0.3,
        duplicate_prob: 0.0,
        pathological_prob: 0.0,
    };
    let mut stream = FaultInjector::new(ChunkStream::new(&scenario, 0, total, chunk), faults);

    let first = stream.next().unwrap();
    let mut guard = IngestGuard::new(GapPolicy::Interpolate, n_nodes);
    let (clean, first_repairs) = guard.repair(&first).unwrap();
    let mut model = IMrDmd::fit(clean.as_ref().unwrap_or(&first), &c);

    let mut total_gaps = first_repairs.gaps;
    let mut total_repaired = first_repairs.repaired;
    for batch in stream.by_ref() {
        let report = model.try_partial_fit(&batch, &mut guard).unwrap();
        total_gaps += report.repairs.gaps;
        total_repaired += report.repairs.repaired;
    }
    assert_eq!(model.n_steps(), total);
    assert!(
        total_gaps > 0,
        "test premise: the injector actually corrupted the stream"
    );
    assert_eq!(total_gaps, total_repaired, "every gap was repaired");
    // The injector's own ledger agrees something was injected.
    assert!(!stream.events().is_empty());

    let rec = model.reconstruct();
    assert!(
        rec.as_slice().iter().all(|v| v.is_finite()),
        "no NaN leaked into the model"
    );
    // The repaired fit still tracks the clean ground truth to a sane error.
    let truth = scenario.generate(0, total);
    let rel = rec.fro_dist(&truth) / truth.fro_norm();
    assert!(rel < 0.5, "relative error {rel} despite stream faults");
}

/// Reject policy: the first corrupted batch is a typed error naming the
/// offending cell, and the model state is untouched (the batch never
/// reached `partial_fit`).
#[test]
fn reject_policy_fails_fast_and_keeps_model_intact() {
    let dt = 20.0;
    let data = signal(8, 256, dt);
    let mut model = IMrDmd::fit(&data.cols_range(0, 128), &cfg(dt, 3));
    let before = bits(&model.reconstruct());

    let mut guard = IngestGuard::new(GapPolicy::Reject, 8);
    let mut bad = data.cols_range(128, 192);
    bad[(3, 7)] = f64::NAN;
    let err = model.try_partial_fit(&bad, &mut guard).unwrap_err();
    match err {
        CoreError::NonFinite { row, col } => {
            assert_eq!((row, col), (3, 7));
        }
        other => panic!("expected NonFinite, got {other}"),
    }
    assert_eq!(model.n_steps(), 128, "rejected batch was not absorbed");
    assert_eq!(before, bits(&model.reconstruct()), "state untouched");

    // Shape mismatches are typed errors too, not panics.
    let wrong = Mat::zeros(9, 64);
    assert!(matches!(
        model.try_partial_fit(&wrong, &mut guard),
        Err(CoreError::ShapeMismatch {
            expected_rows: 8,
            got_rows: 9
        })
    ));
}

/// The acceptance crash-recovery test: kill a streaming run at an arbitrary
/// chunk boundary, resume from the checkpoint, and the final model
/// reconstructs **bitwise identically** to the uninterrupted run.
#[test]
fn kill_and_resume_from_checkpoint_is_bitwise_identical() {
    let dt = 20.0;
    let total = 512;
    let chunk = 64;
    let data = signal(12, total, dt);
    let c = cfg(dt, 4);

    // Uninterrupted reference run.
    let mut reference = IMrDmd::fit(&data.cols_range(0, 128), &c);
    let mut lo = 128;
    while lo < total {
        reference.partial_fit(&data.cols_range(lo, lo + chunk));
        lo += chunk;
    }

    // Interrupted run: stream to snapshot 384, checkpoint, "crash" (drop
    // the model), restore, and stream the rest.
    let dir = tmp("kill-and-resume");
    let _ = fs::remove_dir_all(&dir);
    let mut ck = Checkpointer::for_shard(&dir, 1, "model").unwrap();
    let mut m = IMrDmd::fit(&data.cols_range(0, 128), &c);
    let mut lo = 128;
    while lo < 384 {
        m.partial_fit(&data.cols_range(lo, lo + chunk));
        if ck.due() {
            ck.write_state(m.n_steps(), &m).unwrap();
        }
        lo += chunk;
    }
    drop(m); // the crash

    let history = shard_checkpoint_history(&dir, "model").unwrap();
    let (_, newest) = history.first().expect("checkpoints exist");
    let mut resumed: IMrDmd = load_state_checkpoint(newest).unwrap();
    assert_eq!(resumed.n_steps(), 384, "newest checkpoint is the latest");
    let mut lo = resumed.n_steps();
    while lo < total {
        resumed.partial_fit(&data.cols_range(lo, lo + chunk));
        lo += chunk;
    }

    assert_eq!(resumed.n_steps(), reference.n_steps());
    assert_eq!(resumed.n_modes(), reference.n_modes());
    assert_eq!(
        bits(&resumed.reconstruct()),
        bits(&reference.reconstruct()),
        "resumed run reconstructs bitwise identically"
    );
}

/// A checkpoint with a pending sub-window in flight restores that pending
/// buffer too: resuming mid-accumulation loses nothing.
#[test]
fn pending_buffer_survives_checkpoint_roundtrip() {
    let dt = 20.0;
    let data = signal(8, 300, dt);
    let c = cfg(dt, 4);
    let mut m = IMrDmd::fit(&data.cols_range(0, 256), &c);
    m.partial_fit(&data.cols_range(256, 263)); // 7 < min_window: stays pending
    assert_eq!(
        m.pending_len(),
        7,
        "test premise: a pending window in flight"
    );

    let path = tmp("pending.ckpt");
    save_state_checkpoint(&m, &path).unwrap();
    let restored: IMrDmd = load_state_checkpoint(&path).unwrap();
    assert_eq!(restored.pending_len(), 7);
    assert_eq!(restored.n_steps(), m.n_steps());
    assert_eq!(bits(&restored.reconstruct()), bits(&m.reconstruct()));
}

/// Torn and corrupted checkpoint files are clean typed errors, never a
/// garbage model: truncation (a crash mid-write that somehow skipped the
/// atomic rename), bit flips (disk rot), and header vandalism all reject.
#[test]
fn torn_and_corrupt_checkpoints_are_rejected() {
    let dt = 20.0;
    let data = signal(8, 128, dt);
    let m = IMrDmd::fit(&data, &cfg(dt, 3));
    let path = tmp("corrupt.ckpt");
    save_state_checkpoint(&m, &path).unwrap();
    let good = fs::read(&path).unwrap();
    assert!(
        load_state_checkpoint::<IMrDmd>(&path).is_ok(),
        "pristine file loads"
    );

    // Truncated at 60%: length check trips before the codec ever runs.
    fs::write(&path, &good[..good.len() * 6 / 10]).unwrap();
    assert!(matches!(
        load_state_checkpoint::<IMrDmd>(&path),
        Err(CheckpointError::LengthMismatch { .. })
    ));

    // A single flipped bit deep in the payload: checksum catches it.
    let mut flipped = good.clone();
    let at = flipped.len() * 7 / 10;
    flipped[at] ^= 0x10;
    fs::write(&path, &flipped).unwrap();
    assert!(matches!(
        load_state_checkpoint::<IMrDmd>(&path),
        Err(CheckpointError::ChecksumMismatch { .. })
    ));

    // A flipped high bit: still a checksum error, since only the header
    // line is decoded as text.
    let mut high = good.clone();
    high[at] ^= 0x80;
    fs::write(&path, &high).unwrap();
    assert!(matches!(
        load_state_checkpoint::<IMrDmd>(&path),
        Err(CheckpointError::ChecksumMismatch { .. })
    ));

    // Wrong magic.
    let mut vandalised = good.clone();
    vandalised[0] = b'X';
    fs::write(&path, &vandalised).unwrap();
    assert!(matches!(
        load_state_checkpoint::<IMrDmd>(&path),
        Err(CheckpointError::BadHeader(_))
    ));

    // A version from the future is refused, not misparsed.
    let body = good.iter().position(|&b| b == b'\n').unwrap();
    let mut future = std::str::from_utf8(&good[..body])
        .unwrap()
        .replacen(" v2 ", " v9 ", 1)
        .into_bytes();
    future.extend_from_slice(&good[body..]);
    fs::write(&path, future).unwrap();
    assert!(matches!(
        load_state_checkpoint::<IMrDmd>(&path),
        Err(CheckpointError::UnsupportedVersion(9))
    ));

    // And the pristine bytes still load after all that.
    fs::write(&path, &good).unwrap();
    let restored: IMrDmd = load_state_checkpoint(&path).unwrap();
    assert_eq!(bits(&restored.reconstruct()), bits(&m.reconstruct()));
}

/// Rewrites the first `"field":<integer>` of a shard checkpoint's state,
/// as v1 JSON, to `"field":value` and recomputes the header, so the damage
/// passes the length and checksum checks and only the model check can see
/// it.
fn rechecksum_with(path: &Path, field: &str, value: u64) {
    rechecksum_edit(path, |payload| {
        let key = format!("\"{field}\":");
        let at = payload.find(&key).unwrap() + key.len();
        let digits = payload[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        format!("{}{value}{}", &payload[..at], &payload[at + digits..])
    });
}

/// Rewrites a shard checkpoint as a v1 file: its state as JSON, edited by
/// `edit` and sealed with a fresh header and checksum, so only the model's
/// own validation stands between the edit and the next round.
fn rechecksum_edit(path: &Path, edit: impl FnOnce(&str) -> String) {
    let snap: ShardSnapshot = load_state_checkpoint(path).unwrap();
    let edited = edit(&serde_json::to_string(&snap).unwrap());
    let crc = mrdmd_suite::core::storage::crc32(edited.as_bytes());
    fs::write(
        path,
        format!("IMRDMD-CKPT v1 {} {crc:08x}\n{edited}", edited.len()),
    )
    .unwrap();
}

/// Rewrites the first `field` of a v2 checkpoint's binary payload (its
/// key, then a `u64`) to `value` and reseals the v2 header, so the damage
/// passes the length and checksum checks and only the model check can
/// see it.
fn rechecksum_binary(path: &Path, field: &str, value: u64) {
    let raw = fs::read(path).unwrap();
    assert!(raw.starts_with(b"IMRDMD-CKPT v2 "));
    let body = raw.iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut payload = raw[body..].to_vec();
    // The key's length and bytes, then the value's `u64` tag byte.
    let mut key = (field.len() as u32).to_le_bytes().to_vec();
    key.extend_from_slice(field.as_bytes());
    key.push(4);
    let at = payload.windows(key.len()).position(|w| w == key).unwrap() + key.len();
    payload[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let crc = mrdmd_suite::core::storage::crc32(&payload);
    let mut sealed = format!("IMRDMD-CKPT v2 {} {crc:08x}\n", payload.len()).into_bytes();
    sealed.extend_from_slice(&payload);
    fs::write(path, sealed).unwrap();
}

/// Reshapes the matrix that follows `prefix` (serialized `[rows,cols,[…]]`)
/// to one row of `rows·cols` columns: the buffer length still matches, so
/// the matrix decoder accepts it.
fn flatten_matrix(payload: &str, prefix: &str) -> String {
    let at = payload.find(prefix).unwrap() + prefix.len();
    let mut dims = payload[at..].splitn(3, ',');
    let rows: usize = dims.next().unwrap().parse().unwrap();
    let cols: usize = dims.next().unwrap().parse().unwrap();
    let rest = dims.next().unwrap();
    format!("{}1,{},{rest}", &payload[..at], rows * cols)
}

/// Drops the first element of the array that `prefix` opens.
fn drop_first_element(payload: &str, prefix: &str) -> String {
    let at = payload.find(prefix).unwrap() + prefix.len();
    let comma = payload[at..].find(',').unwrap();
    format!("{}{}", &payload[..at], &payload[at + comma + 1..])
}

/// Replaces the matrix that follows `prefix` with a zero one of the same
/// rows and `cols` columns.
fn widen_matrix(payload: &str, prefix: &str, cols: usize) -> String {
    let at = payload.find(prefix).unwrap() + prefix.len();
    let rows: usize = payload[at..].split(',').next().unwrap().parse().unwrap();
    let end = at + payload[at..].find(']').unwrap() + 2;
    let zeros = vec!["0.0"; rows * cols].join(",");
    format!(
        "{}{rows},{cols},[{zeros}]]{}",
        &payload[..at],
        &payload[end..]
    )
}

/// Replaces the first number after `prefix` with one that decodes to +∞.
fn overflow_number(payload: &str, prefix: &str) -> String {
    let at = payload.find(prefix).unwrap() + prefix.len();
    let len = payload[at..]
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap();
    format!("{}1e999{}", &payload[..at], &payload[at + len..])
}

/// A shard checkpoint that passes its checksum but carries an
/// out-of-domain configuration or decimation state is refused on load,
/// and recovery falls back past it to the older valid checkpoint, which
/// then streams on. Unchecked, such a file restored as `Ready`: with
/// `nyquist_factor` or `max_cycles` 0 the next round divided by zero, with
/// `root_step` 0 its column capture never ended.
#[test]
fn out_of_domain_checkpoints_fall_back_to_an_older_one() {
    let dt = 20.0;
    let data = signal(6, 384, dt);
    let c = cfg(dt, 3);
    let tenant = "rack-x";
    type Tamper = fn(&Path, &str, u64);
    let fields = ["nyquist_factor", "max_cycles", "root_step"];
    let encodings: [(&str, Tamper); 2] = [("v1", rechecksum_with), ("v2", rechecksum_binary)];
    for (field, (encoding, tamper)) in fields.into_iter().flat_map(|f| encodings.map(|e| (f, e))) {
        let dir = tmp(&format!("out-of-domain-{field}-{encoding}"));
        let _ = fs::remove_dir_all(&dir);
        let ck = || Some(Checkpointer::for_shard(&dir, 1, tenant).unwrap());
        let mut shard = Shard::new(tenant, &c, GapPolicy::Interpolate, ck());
        for lo in [0, 128] {
            shard
                .ingest(&data.cols_range(lo, lo + 128), Some(lo))
                .unwrap();
        }
        let history = shard_checkpoint_history(&dir, tenant).unwrap();
        assert_eq!(history.len(), 2);
        let newest = &history[0].1;
        tamper(newest, field, 0);
        assert!(
            matches!(ShardSnapshot::load(newest), Err(CheckpointError::Codec(_))),
            "{field} 0 must not load ({encoding})"
        );

        let rec = Shard::recover(&dir, tenant, &c, GapPolicy::Interpolate, ck());
        assert!(rec.from_checkpoint, "{field}");
        assert_eq!(rec.fallbacks, 1, "{field}");
        let mut shard = rec.shard;
        assert_eq!(shard.status().steps, 128, "{field}");
        let reply = shard.ingest(&data.cols_range(128, 256), Some(128)).unwrap();
        assert_eq!(reply.steps, 256);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A shard checkpoint that passes its checksum but whose tree state no fit
/// could produce is refused on load, and recovery falls back past it to the
/// older valid checkpoint, which then streams on. Unchecked, each restored
/// as `Ready`: a root streaming SVD or sketch basis reshaped with its buffer
/// intact panicked on the next round's update, a node whose `row_offset`
/// put its rows past the stream's was cut off in reconstruction without a
/// sign, and an infinite amplitude poisoned every reading of its node. A
/// gap guard tracking fewer sensors than the model would let a batch the
/// guard accepts reach a round of the wrong height. A pending window or a
/// history reshaped to one row panicked in the next round's `hstack`; a
/// pending window at `min_window` or longer than the stream is one no
/// round leaves behind.
#[test]
fn inconsistent_tree_checkpoints_fall_back_to_an_older_one() {
    let dt = 20.0;
    let data = signal(6, 384, dt);
    let exact = cfg(dt, 3);
    let mut sketched = exact;
    sketched.mr.strategy = FitStrategy::Sketched {
        rank_oversample: 2,
        power_iters: 1,
        seed: 5,
    };
    let tenant = "rack-y";
    type Tamper = fn(&Path);
    let cases: [(&str, IMrDmdConfig, Tamper); 10] = [
        ("isvd-u", exact, |p| {
            rechecksum_edit(p, |s| flatten_matrix(s, "\"isvd\":{\"u\":["))
        }),
        ("sketch-q", sketched, |p| {
            rechecksum_edit(p, |s| flatten_matrix(s, "\"sketch\":{\"q\":["))
        }),
        ("row-offset", exact, |p| rechecksum_with(p, "row_offset", 5)),
        ("row-offset-v2", exact, |p| {
            rechecksum_binary(p, "row_offset", 5)
        }),
        ("amplitude", exact, |p| {
            rechecksum_edit(p, |s| overflow_number(s, "\"amplitudes\":[["))
        }),
        ("guard-rows", exact, |p| {
            rechecksum_edit(p, |s| drop_first_element(s, "\"last_good\":["))
        }),
        // A `min_window` past the flattened width, so that only the row
        // count is wrong.
        ("pending-rows", exact, |p| {
            rechecksum_edit(p, |s| flatten_matrix(s, "\"pending\":["));
            rechecksum_with(p, "min_window", 1000);
        }),
        ("pending-full", exact, |p| {
            rechecksum_with(p, "min_window", 7)
        }),
        ("pending-past-stream", exact, |p| {
            rechecksum_edit(p, |s| widen_matrix(s, "\"pending\":[", 136));
            rechecksum_with(p, "min_window", 1000);
        }),
        ("history-rows", exact, |p| {
            rechecksum_edit(p, |s| flatten_matrix(s, "\"history\":["))
        }),
    ];
    for (case, c, tamper) in cases {
        let dir = tmp(&format!("inconsistent-{case}"));
        let _ = fs::remove_dir_all(&dir);
        let ck = || Some(Checkpointer::for_shard(&dir, 1, tenant).unwrap());
        let mut shard = Shard::new(tenant, &c, GapPolicy::Interpolate, ck());
        // The newest checkpoint holds 7 pending snapshots (below
        // `min_window`) and, under `keep_history`, a 6 × 135 history.
        for (lo, hi) in [(0, 128), (128, 135)] {
            shard.ingest(&data.cols_range(lo, hi), Some(lo)).unwrap();
        }
        let history = shard_checkpoint_history(&dir, tenant).unwrap();
        assert_eq!(history.len(), 2);
        let newest = &history[0].1;
        tamper(newest);
        assert!(
            matches!(ShardSnapshot::load(newest), Err(CheckpointError::Codec(_))),
            "{case} must not load"
        );

        let rec = Shard::recover(&dir, tenant, &c, GapPolicy::Interpolate, ck());
        assert!(rec.from_checkpoint, "{case}");
        assert_eq!(rec.fallbacks, 1, "{case}");
        let mut shard = rec.shard;
        assert_eq!(shard.status().steps, 128, "{case}");
        let reply = shard.ingest(&data.cols_range(128, 256), Some(128)).unwrap();
        assert_eq!(reply.steps, 256);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Regression (pre-PR bug): a chunk size smaller than `min_window` silently
/// dropped every batch's subtree residual — the model degraded to its root
/// ISVD alone. The pending buffer now accumulates small chunks into proper
/// subtree windows.
#[test]
fn tiny_chunks_no_longer_lose_subtree_detail() {
    let dt = 20.0;
    let total = 512;
    let data = signal(12, total, dt);
    let c = cfg(dt, 4);

    let mut tiny = IMrDmd::fit(&data.cols_range(0, 128), &c);
    let mut big = IMrDmd::fit(&data.cols_range(0, 128), &c);
    for lo in (128..total).step_by(8) {
        tiny.partial_fit(&data.cols_range(lo, lo + 8));
    }
    for lo in (128..total).step_by(64) {
        big.partial_fit(&data.cols_range(lo, lo + 64));
    }
    assert_eq!(tiny.n_steps(), total);

    // Pre-PR, the tiny-chunk run had zero post-fit subtree nodes: every
    // 8-column batch fell below min_window (16) and its residual vanished.
    let initial_nodes = IMrDmd::fit(&data.cols_range(0, 128), &c).nodes().count();
    assert!(
        tiny.nodes().count() > initial_nodes,
        "tiny chunks grew subtrees ({} nodes vs {initial_nodes} at fit)",
        tiny.nodes().count()
    );

    // And its accuracy is in the same regime as the big-chunk stream.
    let e_tiny = tiny.reconstruct().fro_dist(&data) / data.fro_norm();
    let e_big = big.reconstruct().fro_dist(&data) / data.fro_norm();
    assert!(
        e_tiny < (3.0 * e_big).max(0.25),
        "tiny-chunk error {e_tiny} vs big-chunk {e_big}"
    );
}

/// Hold-last repair carries the last finite reading across batch
/// boundaries — the cross-batch state the guard exists for.
#[test]
fn hold_policy_carries_state_across_batches() {
    let dt = 20.0;
    let data = signal(6, 192, dt);
    let c = cfg(dt, 3);
    let mut model = IMrDmd::fit(&data.cols_range(0, 128), &c);
    let mut guard = IngestGuard::new(GapPolicy::HoldLast, 6);

    // Prime the guard's carry with a clean batch…
    let r = model
        .try_partial_fit(&data.cols_range(128, 160), &mut guard)
        .unwrap();
    assert!(r.repairs.is_clean());
    // …then a batch whose row 2 is entirely gaps: held from column 159.
    let mut bad = data.cols_range(160, 192);
    for j in 0..32 {
        bad[(2, j)] = f64::NAN;
    }
    let r = model.try_partial_fit(&bad, &mut guard).unwrap();
    assert_eq!(r.repairs.gaps, 32);
    assert_eq!(r.repairs.repaired, 32);
    assert!(r.repairs.unseeded_rows.is_empty(), "carry was available");
    let rec = model.reconstruct();
    assert!(rec.as_slice().iter().all(|v| v.is_finite()));
}

/// Regression for the concurrent-checkpoint collision: multiple threads
/// saving into the same directory — even to the **same final path** — must
/// never tear each other's writes. The pre-fix code derived one shared
/// `.tmp` sibling from the final path, so two concurrent saves raced on the
/// temp file and one rename could ship a half-written payload; temp names
/// are now unique per (process, save). Every save must succeed and the
/// file must parse as a complete checkpoint at all times.
#[test]
fn concurrent_checkpoint_saves_to_one_path_never_collide() {
    let dt = 20.0;
    let data = signal(5, 160, dt);
    let model = IMrDmd::fit(&data, &cfg(dt, 3));
    let path = tmp("concurrent-one-path.ckpt");
    let _ = fs::remove_file(&path);

    let workers: Vec<_> = (0..8)
        .map(|_| {
            let model = model.clone();
            let path = path.clone();
            std::thread::spawn(move || {
                for _ in 0..12 {
                    save_state_checkpoint(&model, &path)
                        .expect("save must never fail under contention");
                }
            })
        })
        .collect();
    // Reader races the writers: any visible file state must be a complete,
    // CRC-valid checkpoint (rename is atomic; temp files are private).
    let mut observed = 0usize;
    while workers.iter().any(|w| !w.is_finished()) {
        if path.exists() {
            let restored: IMrDmd =
                load_state_checkpoint(&path).expect("visible checkpoint must be whole");
            assert_eq!(restored.n_steps(), model.n_steps());
            observed += 1;
        }
    }
    for w in workers {
        w.join().unwrap();
    }
    assert!(observed > 0, "reader must actually race the writers");
    let restored: IMrDmd = load_state_checkpoint(&path).unwrap();
    assert_eq!(bits(&restored.reconstruct()), bits(&model.reconstruct()));
    // No temp litter left behind.
    let dir = path.parent().unwrap();
    let litter: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("concurrent-one-path") && n.ends_with(".tmp"))
        .collect();
    assert!(litter.is_empty(), "temp files leaked: {litter:?}");
}

/// Shard-namespaced checkpointers sharing one `--checkpoint-dir`: each
/// tenant's files live under its own `ckpt-<shard>-<steps>` namespace, so
/// concurrent fleets neither collide nor cross-restore.
#[test]
fn sharded_checkpointers_share_a_directory_without_crosstalk() {
    let dt = 20.0;
    let dir = tmp("sharded-dir");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    let workers: Vec<_> = (0..6)
        .map(|k| {
            let dir = dir.clone();
            std::thread::spawn(move || {
                // Distinct per-shard signal so cross-restores would be caught.
                let data = signal(4 + k, 128, dt);
                let model = IMrDmd::fit(&data, &cfg(dt, 3));
                let mut ck = Checkpointer::for_shard(&dir, 1, &format!("shard-{k}")).unwrap();
                assert!(ck.due(), "every = 1 writes on the first batch");
                ck.write_state(model.n_steps(), &model).unwrap();
                model
            })
        })
        .collect();
    let models: Vec<IMrDmd> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    let found = shard_checkpoints(&dir).unwrap();
    assert_eq!(found.len(), 6);
    for (k, model) in models.iter().enumerate() {
        let shard = format!("shard-{k}");
        let history = shard_checkpoint_history(&dir, &shard).unwrap();
        let (_, path) = history
            .first()
            .unwrap_or_else(|| panic!("missing checkpoint for {shard}"));
        let restored: IMrDmd = load_state_checkpoint(path).unwrap();
        assert_eq!(
            bits(&restored.reconstruct()),
            bits(&model.reconstruct()),
            "{shard} restored someone else's state"
        );
    }
    // Shard names may themselves contain dashes; the steps suffix still
    // parses.
    assert!(is_valid_shard_name("rack-a-12"));
}

/// `imrdmd-cli stream --resume` restarts from a shard checkpoint, which
/// carries the ingest guard's per-sensor last-good carry along with the
/// model. A stream resumed with a NaN run straddling the resume point must
/// therefore write the same model file, byte for byte, as a stream that
/// never stopped — under every repairing gap policy. (A bare-model
/// checkpoint loses the carry, and the boundary gap repairs differently.)
#[test]
fn cli_stream_resume_is_bitwise_under_gap_repair() {
    let dt = 20.0;
    let mut data = signal(10, 600, dt);
    for j in 396..404 {
        data[(3, j)] = f64::NAN;
    }
    let full = tmp("cli-resume-full.csv");
    let prefix = tmp("cli-resume-prefix.csv");
    for (path, m) in [(&full, data.clone()), (&prefix, data.cols_range(0, 400))] {
        let mut f = fs::File::create(path).unwrap();
        write_snapshots_csv(&mut f, &m, 0).unwrap();
    }
    let cli = |args: String| -> String {
        let argv: Vec<String> = args.split_whitespace().map(String::from).collect();
        imrdmd_cli::run(&imrdmd_cli::parse_args(&argv).unwrap()).unwrap()
    };
    for policy in ["hold", "interpolate", "mask"] {
        let store = tmp(&format!("cli-resume-{policy}"));
        let _ = fs::remove_dir_all(&store);
        let whole = tmp(&format!("cli-resume-{policy}-whole.json"));
        let resumed = tmp(&format!("cli-resume-{policy}-resumed.json"));
        let common = format!("--dt {dt} --chunk 100 --levels 4 --gap-policy {policy}");

        cli(format!(
            "stream --input {} {common} --model {}",
            full.display(),
            whole.display()
        ));
        cli(format!(
            "stream --input {} {common} --store-dir {} --model {}",
            prefix.display(),
            store.display(),
            resumed.display()
        ));
        let out = cli(format!(
            "stream --input {} {common} --store-dir {} --resume --model {}",
            full.display(),
            store.display(),
            resumed.display()
        ));
        assert!(out.contains("resumed from"), "{policy}: {out}");
        assert!(out.contains("at snapshot 400"), "{policy}: {out}");
        assert!(
            out.contains("streamed 2 chunks (200 snapshots"),
            "{policy}: {out}"
        );
        assert!(
            fs::read(&whole).unwrap() == fs::read(&resumed).unwrap(),
            "{policy}: the resumed model file differs from the uninterrupted run's"
        );
    }
}
