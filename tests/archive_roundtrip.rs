//! Property-based round-trip tests for the mode archive: across scenario
//! shapes, tree depths, and rank-selection rules, every quantization tier
//! reconstructs within its advertised relative-error bound, the f64 tier is
//! bitwise, and arbitrary time ranges replay identically to the in-memory
//! reconstruction of the same range — from the archive file alone. The
//! compression figures are archive sizes too: a batch tree's archive
//! replays bitwise, and its ratio grows with the timeline.
//!
//! `tests/fixtures/archive_digests.txt` pins the archive bytes themselves:
//! the FNV-1a 64-bit digest of each tier's archive of one fixed streamed
//! model, so any change to the encoder's output shows up as a changed
//! digest. On a mismatch the test prints the freshly computed fixture.

use mrdmd_suite::prelude::*;
use proptest::prelude::*;

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("imrdmd-archive-proptest");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn fitted(n_nodes: usize, total: usize, seed: u64, levels: usize, rank: RankSelection) -> IMrDmd {
    let mut machine = theta().scaled(n_nodes);
    machine.series_per_node = 1;
    let scenario = Scenario::sc_log(machine, total, seed);
    let data = scenario.generate(0, total);
    let cfg = IMrDmdConfig {
        mr: MrDmdConfig {
            dt: scenario.dt(),
            max_levels: levels,
            max_cycles: 2,
            rank,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    };
    IMrDmd::fit(&data, &cfg)
}

const DIGESTS: &str = "tests/fixtures/archive_digests.txt";

/// FNV-1a, 64-bit, of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A tree fitted on 128 snapshots and streamed through four rounds with
/// `min_window = 16`: a 48-step batch flushed where it lies, two short
/// batches (5 and 9 steps) held as a pending carry, and a 40-step batch
/// that flushes the carry together with itself.
fn streamed() -> IMrDmd {
    let signal = |t0: usize, cols: usize, seed: usize| {
        Mat::from_fn(12, cols, |i, j| {
            let t = (t0 + j) as f64 * 0.5;
            let x = i as f64 / 12.0;
            (0.03 * t + 2.0 * x + seed as f64).sin()
                + 0.4 * (0.7 * t + 4.0 * x).cos()
                + 0.05 * (3.1 * t + 9.0 * x + 0.3 * seed as f64).sin()
        })
    };
    let cfg = IMrDmdConfig {
        mr: MrDmdConfig {
            dt: 0.5,
            max_levels: 3,
            max_cycles: 2,
            rank: RankSelection::Svht,
            min_window: 16,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    };
    let mut model = IMrDmd::fit(&signal(0, 128, 0), &cfg);
    let mut t = 128;
    for (k, len) in [48, 5, 9, 40].into_iter().enumerate() {
        let report = model.partial_fit(&signal(t, len, k + 1));
        assert_eq!(report.pending > 0, k == 1 || k == 2, "round {k} carry");
        t += len;
    }
    model
}

/// Every tier's archive of [`streamed`] is byte-for-byte the recorded one.
#[test]
fn archive_bytes_match_recorded_digests() {
    let model = streamed();
    let got: String = [QuantTier::F64, QuantTier::F32, QuantTier::Q16]
        .into_iter()
        .map(|tier| {
            let path = scratch(&format!("digest-{}.{tier}.arch", std::process::id()));
            let info = write_archive(&model, &path, tier).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(info.bytes, bytes.len() as u64);
            format!("{tier} {:016x}\n", fnv1a(&bytes))
        })
        .collect();
    let path = format!("{}/{DIGESTS}", env!("CARGO_MANIFEST_DIR"));
    let want: String = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        got == want,
        "archive digests diverged from {DIGESTS}\n--- recorded ---\n{want}--- computed ---\n{got}"
    );
}

/// A batch tree over `p × t` snapshots of a smooth two-scale signal, and
/// its lossless archive measured into a sink.
fn batch_archive(p: usize, t: usize) -> (MrDmd, ArchiveInfo) {
    let data = Mat::from_fn(p, t, |i, j| {
        let x = i as f64 / p as f64;
        let tt = j as f64;
        (0.01 * tt + 2.0 * x).sin() + 0.3 * (0.08 * tt + 5.0 * x).cos()
    });
    let cfg = MrDmdConfig {
        dt: 1.0,
        max_levels: 4,
        max_cycles: 2,
        rank: RankSelection::Svht,
        ..MrDmdConfig::default()
    };
    let m = MrDmd::fit(&data, &cfg);
    let sink = &mut std::io::sink();
    let info = encode_tree(m.nodes.iter(), p, t, cfg.dt, QuantTier::F64, sink).unwrap();
    (m, info)
}

/// The tree is about as large whatever the timeline, so a long timeline's
/// archive is many times smaller than its raw snapshots.
#[test]
fn long_timelines_compress_well() {
    let (m, info) = batch_archive(64, 4096);
    assert_eq!(info.raw_bytes(), 64 * 4096 * 8);
    assert_eq!(info.n_nodes, m.nodes.len());
    assert!(info.ratio() > 5.0, "compression ratio {}", info.ratio());
}

#[test]
fn ratio_grows_with_timeline() {
    let short = batch_archive(32, 512).1.ratio();
    let long = batch_archive(32, 4096).1.ratio();
    assert!(
        long > short,
        "ratio should grow with T: short {short}, long {long}"
    );
}

/// The one encoder takes a batch tree as it was fitted: its f64 archive
/// replays bitwise to the batch reconstruction.
#[test]
fn batch_tree_archive_replays_bitwise() {
    let (batch, info) = batch_archive(16, 512);
    let path = scratch(&format!("batch-{}.f64.arch", std::process::id()));
    let mut bytes = Vec::new();
    encode_tree(batch.nodes.iter(), 16, 512, 1.0, QuantTier::F64, &mut bytes).unwrap();
    assert_eq!(info.bytes, bytes.len() as u64);
    std::fs::write(&path, &bytes).unwrap();
    let replayed = ArchiveReader::open(&path).unwrap().replay_all().unwrap();
    let _ = std::fs::remove_file(&path);
    let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert!(
        bits(&replayed) == bits(&batch.reconstruct()),
        "f64 replay must be bitwise"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Tier × depth × rank sweep: each tier's full replay honors its bound
    /// (f64 exactly, lossy tiers within their advertised relative error).
    #[test]
    fn every_tier_replays_within_its_bound(
        n_nodes in 8usize..20,
        total in 128usize..320,
        seed in 0u64..500,
        levels in 2usize..5,
        rank_pick in 0usize..3,
    ) {
        let rank = match rank_pick {
            0 => RankSelection::Svht,
            1 => RankSelection::Fixed(3),
            _ => RankSelection::Energy(0.95),
        };
        let model = fitted(n_nodes, total, seed, levels, rank);
        let exact = model.reconstruct();
        let norm = exact
            .as_slice()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-300);
        for tier in [QuantTier::F64, QuantTier::F32, QuantTier::Q16] {
            let path = scratch(&format!(
                "bound-{n_nodes}-{total}-{seed}-{levels}-{rank_pick}.{tier}.arch"
            ));
            let info = write_archive(&model, &path, tier).unwrap();
            prop_assert_eq!(info.n_steps, total);
            let mut reader = ArchiveReader::open(&path).unwrap();
            let approx = reader.replay_all().unwrap();
            prop_assert_eq!(approx.shape(), exact.shape());
            match tier {
                QuantTier::F64 => {
                    for (a, b) in exact.as_slice().iter().zip(approx.as_slice()) {
                        prop_assert!(a.to_bits() == b.to_bits(), "f64 replay must be bitwise");
                    }
                }
                _ => {
                    let err = exact
                        .as_slice()
                        .iter()
                        .zip(approx.as_slice())
                        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
                        / norm;
                    prop_assert!(
                        err <= tier.rel_error_bound(),
                        "tier {} rel error {:e} exceeds {:e}",
                        tier, err, tier.rel_error_bound()
                    );
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Any sub-range replays bitwise-equal (at f64) to `reconstruct_range`
    /// over the same window, while streaming only the admitting blocks.
    #[test]
    fn arbitrary_ranges_replay_bitwise_at_f64(
        seed in 0u64..500,
        levels in 2usize..5,
        lo_frac in 0.0f64..0.9,
        span_frac in 0.05f64..0.5,
    ) {
        let total = 320;
        let model = fitted(12, total, seed, levels, RankSelection::Svht);
        let t0 = (lo_frac * total as f64) as usize;
        let t1 = (t0 + (span_frac * total as f64) as usize + 1).min(total);
        let path = scratch(&format!("range-{seed}-{levels}-{t0}-{t1}.arch"));
        write_archive(&model, &path, QuantTier::F64).unwrap();
        let mut reader = ArchiveReader::open(&path).unwrap();
        let replayed = reader.replay(t0, t1).unwrap();
        let expect = model.reconstruct_range(t0, t1);
        prop_assert_eq!(replayed.shape(), expect.shape());
        for (a, b) in expect.as_slice().iter().zip(replayed.as_slice()) {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "range [{}, {}) must replay bitwise", t0, t1
            );
        }
        // The seekable index earns its bytes: a narrow range must not scan
        // the whole tree (every level-1 node admits, deeper ones may not).
        prop_assert!(reader.blocks_read() <= reader.info().n_nodes as u64);
        let _ = std::fs::remove_file(&path);
    }
}
