//! Golden bytes for the checkpoint writer.
//!
//! `tests/fixtures/checkpoint_digests.txt` pins every checkpoint file a
//! WAL-backed `Shard` (keep 3, a checkpoint every batch) writes over one
//! fixed `FleetDriver` stream, as FNV-1a 64-bit digests keyed by the
//! checkpoint's step count. The stream carries one gapped batch, repaired
//! under `hold`, and one batch shorter than `min_window`, so the guard's
//! carry and the pending buffer both reach the payload.
//!
//! Each file is pinned twice. A `ckpt2` line is the digest of the binary
//! (v2) file the shard writes. A `ckpt` line is the digest of the same
//! state re-encoded as a v1 file (the header line plus compact JSON); those
//! lines were recorded when saves still wrote v1, so matching them shows
//! that decoding the binary payload gives back the state bit for bit. The
//! v1 file must also load, and saving what it loads must rewrite the v2
//! file byte for byte. The fixture also pins the JSON text of a list of
//! edge-case floats. Any change to the binary codec, the JSON writer, the
//! header line or the CRC shows up as a changed digest; the WAL is not
//! pinned, since its length depends on when retention rewrites it. On a
//! mismatch the test prints the freshly computed fixture.

use std::path::PathBuf;

use imrdmd_serve::{Shard, ShardSnapshot};
use mrdmd_suite::prelude::*;

const DIGESTS: &str = "tests/fixtures/checkpoint_digests.txt";
const TENANT: &str = "t00";

/// FNV-1a, 64-bit, of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("imrdmd-ckpt-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One tenant's stream: four 48-step batches from the fleet driver, the
/// third split into a 5-step batch (below `min_window`) and the rest, and
/// the second holding a short NaN run.
fn stream() -> (f64, Vec<Mat>) {
    let driver = FleetDriver::new(FleetSpec {
        tenants: 1,
        nodes_per_tenant: 3,
        steps: 192,
        chunk: 48,
        base_seed: 23,
        faults: None,
    });
    let mut batches = driver.tenant_batches(0);
    for j in 10..14 {
        batches[1][(2, j)] = f64::NAN;
    }
    let third = batches.remove(2);
    let split = 5;
    batches.insert(2, third.cols_range(split, third.cols()));
    batches.insert(2, third.cols_range(0, split));
    (driver.dt(), batches)
}

/// Edge-case floats whose JSON text the checkpoint payload depends on.
fn edge_floats() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1.5,
        1e15,
        1e16,
        1e21,
        1e22,
        1e-7,
        1.234_567_890_123_456_7e-300,
        -1.5e-300,
        5e-324,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        std::f64::consts::PI,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
}

/// `state` as a v1 checkpoint file: the header line, then compact JSON.
fn v1_file(state: &ShardSnapshot) -> Vec<u8> {
    let json = serde_json::to_string(state).unwrap();
    let crc = mrdmd_suite::core::storage::crc32(json.as_bytes());
    format!("IMRDMD-CKPT v1 {} {crc:08x}\n{json}", json.len()).into_bytes()
}

#[test]
fn checkpoint_bytes_match_recorded_digests() {
    let (dt, batches) = stream();
    let cfg = IMrDmdConfig {
        mr: MrDmdConfig {
            dt,
            max_levels: 3,
            max_cycles: 2,
            rank: RankSelection::Svht,
            min_window: 16,
            ..MrDmdConfig::default()
        },
        ..IMrDmdConfig::default()
    };
    let dir = scratch_dir();
    let ck = Checkpointer::for_shard(&dir, 1, TENANT)
        .unwrap()
        .with_retention(3);
    let wal = Wal::open(&dir, TENANT, Durability::Interval).unwrap();
    let mut shard = Shard::new(TENANT, &cfg, GapPolicy::HoldLast, Some(ck)).with_wal(Some(wal));
    let mut v1_lines = String::new();
    let mut v2_lines = String::new();
    let mut pos = 0;
    for (k, b) in batches.iter().enumerate() {
        let reply = shard.ingest(b, Some(pos)).unwrap();
        pos += b.cols();
        assert_eq!(reply.steps, pos);
        assert_eq!(reply.repairs.gaps, if k == 1 { 4 } else { 0 }, "batch {k}");
        let pending = reply.report.map_or(0, |r| r.pending);
        assert_eq!(pending > 0, k == 2, "batch {k} carry");
        let path = dir.join(format!("ckpt-{TENANT}-{pos:012}.ckpt"));
        let v2 = std::fs::read(&path).unwrap();
        v2_lines.push_str(&format!("ckpt2 {pos} {:016x}\n", fnv1a(&v2)));

        let snap: ShardSnapshot = load_state_checkpoint(&path).unwrap();
        let v1 = v1_file(&snap);
        v1_lines.push_str(&format!("ckpt {pos} {:016x}\n", fnv1a(&v1)));
        let v1_path = dir.join("v1.ckpt");
        std::fs::write(&v1_path, &v1).unwrap();
        let reloaded: ShardSnapshot = load_state_checkpoint(&v1_path).unwrap();
        save_state_checkpoint(&reloaded, &v1_path).unwrap();
        assert!(std::fs::read(&v1_path).unwrap() == v2, "v1 → v2 at {pos}");
        std::fs::remove_file(&v1_path).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
    let json = serde_json::to_string(&edge_floats()).unwrap();
    let got = format!(
        "{v1_lines}{v2_lines}floats {:016x}\n",
        fnv1a(json.as_bytes())
    );

    let path = format!("{}/{DIGESTS}", env!("CARGO_MANIFEST_DIR"));
    let want: String = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        got == want,
        "checkpoint digests diverged from {DIGESTS}\n--- recorded ---\n{want}--- computed ---\n{got}"
    );
}
