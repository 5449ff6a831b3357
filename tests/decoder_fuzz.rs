//! Byte-mutation fuzzing of every on-disk decoder — a write-ahead log, an
//! f64 and a q16 mode archive, and a shard checkpoint in its binary (v2)
//! and JSON (v1) formats read through [`ShardSnapshot::load`], as recovery
//! and the CLI read it — and of the
//! wire decoders: the daemon's HTTP request parser and the snapshot-CSV
//! body reader.
//!
//! Each file is damaged two ways. *Raw* mutations flip, overwrite or
//! truncate bytes anywhere, which the frame or header checksum should
//! catch. *Re-checksummed* mutations damage one payload and then recompute
//! its frame CRC (or the checkpoint header), so the decoder behind the
//! checksum sees the damage. Every case must end in `Ok` or a typed error:
//! a panic fails the property and an allocation abort kills the binary.
//! The wire has no checksum, so an ingest request and its CSV body take raw
//! mutations only, and a parsed request must fit its [`HttpLimits`].

use imrdmd_serve::http::read_request;
use imrdmd_serve::{HttpLimits, Shard, ShardSnapshot};
use mrdmd_suite::core::storage::{crc32, FRAME_HEAD};
use mrdmd_suite::prelude::*;
use mrdmd_suite::telemetry::{read_snapshots_csv, write_snapshots_csv};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::path::PathBuf;
use std::sync::OnceLock;

const SHARD: &str = "fuzz";

/// Values that tend to break length arithmetic when they land in a field.
const EDGES: [u64; 8] = [
    0,
    1,
    0xFF,
    1 << 31,
    u32::MAX as u64,
    1 << 40,
    i64::MAX as u64,
    u64::MAX,
];

/// Caps small enough that a mutated length field can exceed them.
const LIMITS: HttpLimits = HttpLimits {
    max_header_bytes: 256,
    max_body_bytes: 4096,
};

struct Fixtures {
    wal: Vec<u8>,
    f64_archive: Vec<u8>,
    q16_archive: Vec<u8>,
    checkpoint: Vec<u8>,
    checkpoint_v1: Vec<u8>,
    csv: Vec<u8>,
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("imrdmd-decoder-fuzz-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let data = Mat::from_fn(8, 256, |i, j| {
            let (x, t) = (i as f64 / 8.0, j as f64);
            (0.02 * t + 2.0 * x).sin() + 0.4 * (0.15 * t + 5.0 * x).cos()
        });
        let cfg = IMrDmdConfig {
            mr: MrDmdConfig {
                dt: 1.0,
                max_levels: 3,
                ..MrDmdConfig::default()
            },
            ..IMrDmdConfig::default()
        };
        let model = IMrDmd::fit(&data, &cfg);

        let dir = scratch("fixtures");
        let mut wal = Wal::open(&dir, SHARD, Durability::Interval).unwrap();
        for k in 0..3 {
            wal.append(8 * k as u64, &data.cols_range(8 * k, 8 * k + 8))
                .unwrap();
        }
        drop(wal);
        let mut shard = Shard::new(SHARD, &cfg, GapPolicy::Interpolate, None);
        shard.ingest(&data, Some(0)).unwrap();
        let ckpt = dir.join("model.ckpt");
        let snap = shard.snapshot().unwrap();
        save_state_checkpoint(&snap, &ckpt).unwrap();
        let fx = Fixtures {
            wal: std::fs::read(Wal::path_for(&dir, SHARD)).unwrap(),
            f64_archive: archive(&model, QuantTier::F64),
            q16_archive: archive(&model, QuantTier::Q16),
            checkpoint: std::fs::read(&ckpt).unwrap(),
            checkpoint_v1: sealed(1, serde_json::to_string(&snap).unwrap().as_bytes()),
            csv: {
                let mut csv = Vec::new();
                write_snapshots_csv(&mut csv, &data.cols_range(0, 12), 0).unwrap();
                csv
            },
        };
        let _ = std::fs::remove_dir_all(&dir);
        fx
    })
}

fn archive(model: &IMrDmd, tier: QuantTier) -> Vec<u8> {
    let mut bytes = Vec::new();
    encode_archive(model, tier, &mut bytes).unwrap();
    bytes
}

/// A checkpoint file of format `version` around `payload`, with the
/// payload's true length and checksum in its header.
fn sealed(version: u32, payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "IMRDMD-CKPT v{version} {} {:08x}\n",
        payload.len(),
        crc32(payload)
    );
    let mut bytes = header.into_bytes();
    bytes.extend_from_slice(payload);
    bytes
}

fn header_end(bytes: &[u8]) -> usize {
    bytes.iter().position(|&b| b == b'\n').unwrap() + 1
}

/// `(frame-head offset, payload length)` of every CRC-intact frame from
/// `start` on.
fn frames(bytes: &[u8], start: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = start;
    while at + FRAME_HEAD <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        let end = at + FRAME_HEAD + len;
        if end > bytes.len() || crc32(&bytes[at + FRAME_HEAD..end]) != crc {
            break;
        }
        out.push((at, len));
        at = end;
    }
    out
}

/// One damage recipe: `kind` picks the operation, `pos` where it lands
/// (reduced modulo the target's length) and `val` what it writes.
type Mutation = (u64, u64, u64);

fn mutation() -> impl Strategy<Value = Mutation> {
    (0u64..4, 0u64..u64::MAX, 0u64..u64::MAX)
}

/// Applies `m` to `target`, which must be non-empty. Truncation is only
/// allowed when `may_truncate`; re-checksummed payloads keep their length.
fn damage(target: &mut Vec<u8>, (kind, pos, val): Mutation, may_truncate: bool) {
    // Half the cases land in the first 64 bytes, where the fixed-width
    // fields (shapes, counts, offsets) of every block live.
    let span = if val & 1 == 0 {
        target.len().min(64)
    } else {
        target.len()
    };
    let at = (pos % span as u64) as usize;
    let val = val >> 1;
    match kind {
        0 => target[at] ^= (val % 255 + 1) as u8,
        1 | 2 => {
            // A 4-aligned little-endian edge value (4 or 8 bytes), clipped
            // at the end: every field of the WAL and archive formats is
            // 4-aligned. A binary checkpoint's fields follow one-byte tags,
            // so there an edge value lands across fields as often as on one.
            let at = at & !3;
            let width = if kind == 1 { 4 } else { 8 };
            let edge = EDGES[(val % EDGES.len() as u64) as usize].to_le_bytes();
            let end = (at + width).min(target.len());
            target[at..end].copy_from_slice(&edge[..end - at]);
        }
        _ if may_truncate => target.truncate(at),
        _ => target[at] = val as u8,
    }
}

/// Damages the payload of one CRC-intact frame (picked by `pick`) and
/// recomputes its CRC.
fn damage_frame(bytes: &mut [u8], start: usize, pick: u64, m: Mutation) {
    let all = frames(bytes, start);
    let (at, len) = all[(pick % all.len() as u64) as usize];
    if len == 0 {
        return;
    }
    let payload = at + FRAME_HEAD..at + FRAME_HEAD + len;
    let mut edited = bytes[payload.clone()].to_vec();
    damage(&mut edited, m, false);
    bytes[payload].copy_from_slice(&edited);
    bytes[at + 4..at + 8].copy_from_slice(&crc32(&edited).to_le_bytes());
}

fn check_wal(name: &str, bytes: &[u8]) -> Result<(), TestCaseError> {
    let dir = scratch(name);
    std::fs::write(Wal::path_for(&dir, SHARD), bytes).unwrap();
    let recovered = Wal::recover(&dir, SHARD);
    let _ = std::fs::remove_dir_all(&dir);
    if let Ok(replay) = recovered {
        prop_assert!(replay.valid_bytes <= bytes.len() as u64);
        prop_assert_eq!(replay.torn, replay.valid_bytes < bytes.len() as u64);
    }
    Ok(())
}

fn check_archive(name: &str, bytes: &[u8]) {
    let dir = scratch(name);
    let path = dir.join("model.arch");
    std::fs::write(&path, bytes).unwrap();
    if let Ok(mut reader) = ArchiveReader::open(&path) {
        let n = reader.info().n_steps;
        let _ = reader.replay_all();
        let _ = reader.replay(n / 3, n / 2);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn check_checkpoint(name: &str, bytes: &[u8]) {
    let dir = scratch(name);
    let path = dir.join("model.ckpt");
    std::fs::write(&path, bytes).unwrap();
    let _ = ShardSnapshot::load(&path);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A valid `POST /v1/t00/ingest` request carrying `body`.
fn ingest_request(body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST /v1/t00/ingest HTTP/1.1\r\nHost: localhost\r\n\
         Content-Type: text/csv\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// Parses `bytes` as one request under [`LIMITS`]; a request that parses
/// holds no more than the caps allow.
fn check_request(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(Some(req)) = read_request(&mut &bytes[..], &LIMITS) {
        prop_assert!(req.body.len() <= LIMITS.max_body_bytes);
        let head: usize = req.headers.iter().map(|(k, v)| k.len() + v.len()).sum();
        prop_assert!(head + req.path.len() <= LIMITS.max_header_bytes);
    }
    Ok(())
}

/// Reads `body` as a snapshot CSV; a matrix that parses holds at most one
/// value per body byte (every value follows a comma).
fn check_csv(body: &[u8]) -> Result<(), TestCaseError> {
    if let Ok((m, _)) = read_snapshots_csv(body) {
        prop_assert!(m.rows() * m.cols() <= body.len());
    }
    Ok(())
}

/// The unmutated request and body parse; edge values as the declared
/// `Content-Length` are refused against the body cap or the bytes
/// present, never allocated.
#[test]
fn http_fixture_parses_and_content_length_edges_fail_typed() {
    let body = &fixtures().csv;
    let req = ingest_request(body);
    let parsed = read_request(&mut &req[..], &LIMITS).unwrap().unwrap();
    assert_eq!(
        (parsed.path.as_str(), &parsed.body),
        ("/v1/t00/ingest", body)
    );
    assert_eq!(read_snapshots_csv(&body[..]).unwrap().0.cols(), 12);
    let req = String::from_utf8(req).unwrap();
    for edge in EDGES {
        let edited = req.replacen(
            &format!("Content-Length: {}", body.len()),
            &format!("Content-Length: {edge}"),
            1,
        );
        assert!(
            read_request(&mut edited.as_bytes(), &LIMITS).is_err(),
            "{edge}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1000, ..ProptestConfig::default() })]

    #[test]
    fn wal_raw_mutations_recover_or_fail_typed(m in mutation()) {
        let mut bytes = fixtures().wal.clone();
        damage(&mut bytes, m, true);
        check_wal("wal-raw", &bytes)?;
    }

    #[test]
    fn wal_rechecksummed_mutations_recover_or_fail_typed(
        pick in 0u64..u64::MAX,
        m in mutation(),
    ) {
        let mut bytes = fixtures().wal.clone();
        let start = header_end(&bytes);
        damage_frame(&mut bytes, start, pick, m);
        check_wal("wal-crc", &bytes)?;
    }

    #[test]
    fn archive_raw_mutations_replay_or_fail_typed(q16 in 0u8..2, m in mutation()) {
        let fx = fixtures();
        let mut bytes = if q16 == 1 { fx.q16_archive.clone() } else { fx.f64_archive.clone() };
        damage(&mut bytes, m, true);
        check_archive("archive-raw", &bytes);
    }

    #[test]
    fn archive_rechecksummed_mutations_replay_or_fail_typed(
        q16 in 0u8..2,
        pick in 0u64..u64::MAX,
        m in mutation(),
    ) {
        let fx = fixtures();
        let mut bytes = if q16 == 1 { fx.q16_archive.clone() } else { fx.f64_archive.clone() };
        let start = header_end(&bytes);
        damage_frame(&mut bytes, start, pick, m);
        check_archive("archive-crc", &bytes);
    }

    #[test]
    fn checkpoint_raw_mutations_load_or_fail_typed(v1 in 0u8..2, m in mutation()) {
        let fx = fixtures();
        let mut bytes = if v1 == 1 { fx.checkpoint_v1.clone() } else { fx.checkpoint.clone() };
        damage(&mut bytes, m, true);
        check_checkpoint("ckpt-raw", &bytes);
    }

    /// The payload is damaged and the header rewritten to match, so the
    /// binary or JSON decoder sees every mutation.
    #[test]
    fn checkpoint_rechecksummed_mutations_load_or_fail_typed(v1 in 0u8..2, m in mutation()) {
        let fx = fixtures();
        let (version, good) = if v1 == 1 { (1, &fx.checkpoint_v1) } else { (2, &fx.checkpoint) };
        let mut payload = good[header_end(good)..].to_vec();
        damage(&mut payload, m, true);
        check_checkpoint("ckpt-crc", &sealed(version, &payload));
    }

    #[test]
    fn http_ingest_raw_mutations_parse_or_fail_typed(m in mutation()) {
        let mut bytes = ingest_request(&fixtures().csv);
        damage(&mut bytes, m, true);
        check_request(&bytes)?;
    }

    #[test]
    fn csv_body_raw_mutations_parse_or_fail_typed(m in mutation()) {
        let mut body = fixtures().csv.clone();
        damage(&mut body, m, true);
        check_csv(&body)?;
    }
}
