//! Checkpoint/restore of streaming state.
//!
//! A long-running monitor must survive collector restarts and crashes
//! without refitting from scratch. This module persists serialisable
//! state — in practice a whole serving shard: the [`IMrDmd`] model with
//! its streaming SVD, the ingest guard's per-sensor carry, and the round
//! count — as versioned, checksummed snapshots written atomically: the
//! payload goes to a `.tmp` sibling first and is renamed into place, so a
//! crash mid-write can never leave a torn file under the final name.
//! Restore verifies the magic, format version, payload length, and CRC-32
//! before decoding, so truncated or bit-flipped files are rejected with a
//! clean error instead of resuming from silently corrupt state.
//!
//! The durability primitives (CRC-32, atomic rename + directory fsync,
//! versioned headers, keep-last-K retention) live in [`crate::storage`]
//! and are shared with the WAL and the mode archive; this module owns
//! only the checkpoint wire format and the `ckpt-<shard>-<steps>.ckpt`
//! file-name grammar.
//!
//! On-disk layout (one header line, then the payload):
//!
//! ```text
//! IMRDMD-CKPT v2 <payload-bytes> <crc32-hex>\n
//! <binary encoding of the state's serde `Content` tree>
//! ```
//!
//! The v2 payload is one value, written depth first. Every value starts
//! with a tag byte; all integers are little-endian:
//!
//! | tag | value    | body                                                 |
//! |-----|----------|------------------------------------------------------|
//! | 0   | null     | none                                                 |
//! | 1   | false    | none                                                 |
//! | 2   | true     | none                                                 |
//! | 3   | `i64`    | 8 bytes                                              |
//! | 4   | `u64`    | 8 bytes                                              |
//! | 5   | `f64`    | its 8-byte bit pattern                               |
//! | 6   | string   | `u32` byte length, then UTF-8                        |
//! | 7   | sequence | `u32` count, then the items                          |
//! | 8   | map      | `u32` count, then per entry a string body and a value |
//!
//! Floats keep their bit patterns, NaN payloads included, so a restored
//! model's [`IMrDmd::reconstruct`] is bitwise-identical to the
//! checkpointed one and load-then-save rewrites the same bytes. The
//! decoder is total: a count larger than the bytes left, nesting deeper
//! than [`serde::MAX_DEPTH`], a string that is not UTF-8, an unknown tag
//! or bytes after the value are all [`CheckpointError::Codec`].
//!
//! Version policy: saves write v2. Loads also accept v1, whose payload is
//! the state as compact serde JSON (floats in Rust's shortest round-trip
//! text, non-finite ones as `null`), so stores written by earlier
//! releases still restore; that reader is kept for one release. Any
//! other version is [`CheckpointError::UnsupportedVersion`].
//!
//! [`IMrDmd`]: crate::imrdmd::IMrDmd
//! [`IMrDmd::reconstruct`]: crate::imrdmd::IMrDmd::reconstruct

use crate::storage::{self, crc32, ByteReader, HeaderError};
use serde::Content;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// First token of every checkpoint file.
pub const CHECKPOINT_MAGIC: &str = "IMRDMD-CKPT";
/// The on-disk format version saves write: the binary payload.
pub const CHECKPOINT_VERSION: u32 = 2;
/// The JSON-payload version that loads still accept.
const JSON_VERSION: u32 = 1;

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`CHECKPOINT_MAGIC`] (or the header
    /// line is malformed).
    BadHeader(String),
    /// The file's format version is one this build does not read.
    UnsupportedVersion(u32),
    /// The payload is shorter or longer than the header promised (torn
    /// write or truncation).
    LengthMismatch {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload's CRC-32 does not match the header (bit rot or a torn
    /// write that happened to preserve the length).
    ChecksumMismatch {
        /// Checksum the header promised.
        expected: u32,
        /// Checksum of the payload as read.
        got: u32,
    },
    /// The payload passed integrity checks but failed to decode.
    Codec(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::BadHeader(m) => write!(f, "bad checkpoint header: {m}"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "checkpoint format v{v} is not supported: this build reads \
                     v{JSON_VERSION} to v{CHECKPOINT_VERSION}"
                )
            }
            CheckpointError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "truncated checkpoint: header promised {expected} payload bytes, found {got}"
                )
            }
            CheckpointError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "checkpoint checksum mismatch: header {expected:08x}, payload {got:08x}"
                )
            }
            CheckpointError::Codec(m) => write!(f, "checkpoint decode failed: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Writes any serialisable `state` to `path` atomically (unique temp
/// sibling + rename + fsync) in the versioned, checksummed wire format:
/// the header line, then the binary payload, streamed through
/// [`storage::atomic_write`] without joining the two in memory. The
/// serving layer persists whole shards (model + ingest guard) this way; a
/// bare [`IMrDmd`](crate::imrdmd::IMrDmd) round-trips the same.
pub fn save_state_checkpoint<T: serde::Serialize>(
    state: &T,
    path: &Path,
) -> Result<(), CheckpointError> {
    let _span = crate::obs::CHECKPOINT_NS.span();
    let payload = {
        let content = state
            .serialize(serde::ContentSerializer)
            .map_err(|e| CheckpointError::Codec(e.to_string()))?;
        // A growing buffer, not one sized up front: a large reservation
        // stays resident in the allocator after every save.
        let mut payload = Vec::new();
        encode_value(&mut payload, &content)?;
        payload
    };
    let len = payload.len().to_string();
    let crc_hex = format!("{:08x}", crc32(&payload));
    let header =
        storage::format_text_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &[&len, &crc_hex]);
    crate::obs::CHECKPOINT_SAVES.inc();
    crate::obs::CHECKPOINT_BYTES.add((header.len() + payload.len()) as u64);
    storage::atomic_write(path, true, |w| {
        w.write_all(header.as_bytes())?;
        w.write_all(&payload)
    })
    .map_err(CheckpointError::Io)
}

/// Restores any state written by [`save_state_checkpoint`], verifying
/// magic, version, length, and checksum before decoding. Files in the v1
/// JSON format load too.
pub fn load_state_checkpoint<T: serde::de::DeserializeOwned>(
    path: &Path,
) -> Result<T, CheckpointError> {
    let _span = crate::obs::CHECKPOINT_NS.span();
    let raw = std::fs::read(path)?;
    crate::obs::CHECKPOINT_LOADS.inc();
    crate::obs::CHECKPOINT_BYTES.add(raw.len() as u64);
    let header =
        storage::read_text_header(&mut raw.as_slice(), CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
            .map_err(|e| match e {
                HeaderError::Io(e) => CheckpointError::Io(e),
                HeaderError::NoLine => CheckpointError::BadHeader("no header line".into()),
                HeaderError::NotUtf8 => CheckpointError::BadHeader("not valid UTF-8".into()),
                HeaderError::BadMagic => {
                    CheckpointError::BadHeader(format!("missing `{CHECKPOINT_MAGIC}` magic"))
                }
                HeaderError::NoVersion => {
                    CheckpointError::BadHeader("missing version token".into())
                }
                HeaderError::Unsupported(v) => CheckpointError::UnsupportedVersion(v),
            })?;
    let expected_len: usize = header
        .rest
        .first()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CheckpointError::BadHeader("missing payload length".into()))?;
    let expected_crc: u32 = header
        .rest
        .get(1)
        .and_then(|v| u32::from_str_radix(v, 16).ok())
        .ok_or_else(|| CheckpointError::BadHeader("missing checksum".into()))?;
    let payload = raw.get(header.len..).unwrap_or_default();
    if payload.len() != expected_len {
        return Err(CheckpointError::LengthMismatch {
            expected: expected_len,
            got: payload.len(),
        });
    }
    let got_crc = crc32(payload);
    if got_crc != expected_crc {
        return Err(CheckpointError::ChecksumMismatch {
            expected: expected_crc,
            got: got_crc,
        });
    }
    match header.version {
        CHECKPOINT_VERSION => {
            let content = decode_payload(payload)?;
            serde::from_content(content)
                .map_err(|e: serde::ContentError| CheckpointError::Codec(e.0))
        }
        JSON_VERSION => {
            let text =
                std::str::from_utf8(payload).map_err(|e| CheckpointError::Codec(e.to_string()))?;
            serde_json::from_str(text).map_err(|e| CheckpointError::Codec(e.to_string()))
        }
        v => Err(CheckpointError::UnsupportedVersion(v)),
    }
}

// ---------------------------------------------------------------------------
// The v2 payload codec
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_I64: u8 = 3;
const TAG_U64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_SEQ: u8 = 7;
const TAG_MAP: u8 = 8;

/// Appends a `u32` length or count, refusing one that does not fit.
fn put_len(out: &mut Vec<u8>, n: usize) -> Result<(), CheckpointError> {
    let n = u32::try_from(n)
        .map_err(|_| CheckpointError::Codec(format!("{n} items exceed the u32 count field")))?;
    out.extend_from_slice(&n.to_le_bytes());
    Ok(())
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), CheckpointError> {
    put_len(out, s.len())?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Appends the v2 encoding of `c` to `out`.
fn encode_value(out: &mut Vec<u8>, c: &Content) -> Result<(), CheckpointError> {
    match c {
        Content::Null => out.push(TAG_NULL),
        Content::Bool(false) => out.push(TAG_FALSE),
        Content::Bool(true) => out.push(TAG_TRUE),
        Content::I64(v) => {
            out.push(TAG_I64);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Content::U64(v) => {
            out.push(TAG_U64);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Content::F64(v) => {
            out.push(TAG_F64);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Content::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s)?;
        }
        Content::Seq(items) => {
            out.push(TAG_SEQ);
            put_len(out, items.len())?;
            for item in items {
                encode_value(out, item)?;
            }
        }
        Content::Map(entries) => {
            out.push(TAG_MAP);
            put_len(out, entries.len())?;
            for (key, value) in entries {
                put_str(out, key)?;
                encode_value(out, value)?;
            }
        }
    }
    Ok(())
}

/// Decodes a whole v2 payload into its `Content` tree.
fn decode_payload(payload: &[u8]) -> Result<Content, CheckpointError> {
    let mut r = ByteReader::new(payload);
    let value = decode_value(&mut r, 1);
    let at = payload.len() - r.remaining();
    match value {
        Ok(value) if r.remaining() == 0 => Ok(value),
        Ok(_) => Err("trailing bytes after the value"),
        Err(what) => Err(what),
    }
    .map_err(|what| CheckpointError::Codec(format!("{what} at payload byte {at}")))
}

const TRUNCATED: &str = "payload ends inside a value";

/// Reads a `u32` count of items that each take at least `min_bytes`,
/// refusing one the bytes left cannot hold, so a damaged count never
/// allocates more than the payload's size allows.
fn read_count(r: &mut ByteReader, min_bytes: usize) -> Result<usize, &'static str> {
    let n = r.u32().ok_or(TRUNCATED)? as usize;
    if n > r.remaining() / min_bytes {
        return Err("count exceeds the bytes left");
    }
    Ok(n)
}

fn read_str(r: &mut ByteReader) -> Result<String, &'static str> {
    let n = r.u32().ok_or(TRUNCATED)? as usize;
    let bytes = r.bytes(n).ok_or(TRUNCATED)?;
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|_| "string is not UTF-8")
}

/// Decodes one value whose nesting level is `depth` (the top is 1).
fn decode_value(r: &mut ByteReader, depth: usize) -> Result<Content, &'static str> {
    if depth > serde::MAX_DEPTH {
        return Err("nesting deeper than the cap");
    }
    let tag = r.bytes(1).ok_or(TRUNCATED)?[0];
    Ok(match tag {
        TAG_NULL => Content::Null,
        TAG_FALSE => Content::Bool(false),
        TAG_TRUE => Content::Bool(true),
        // The bit pattern the encoder wrote with `i64::to_le_bytes`.
        TAG_I64 => Content::I64(r.u64().ok_or(TRUNCATED)? as i64),
        TAG_U64 => Content::U64(r.u64().ok_or(TRUNCATED)?),
        TAG_F64 => Content::F64(r.f64().ok_or(TRUNCATED)?),
        TAG_STR => Content::Str(read_str(r)?),
        TAG_SEQ => {
            // Every item is at least its tag byte.
            let n = read_count(r, 1)?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(r, depth + 1)?);
            }
            Content::Seq(items)
        }
        TAG_MAP => {
            // Every entry is at least a key length and a value tag.
            let n = read_count(r, 5)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let key = read_str(r)?;
                entries.push((key, decode_value(r, depth + 1)?));
            }
            Content::Map(entries)
        }
        _ => return Err("unknown tag"),
    })
}

/// True if `shard` is usable as a checkpoint-file namespace: non-empty,
/// at most 64 bytes, only `[A-Za-z0-9_-]`. The same rule bounds tenant
/// names on the serving path, so a tenant id can never traverse out of
/// the checkpoint directory or collide with the `ckpt-` grammar's
/// separators in an exploitable way.
pub fn is_valid_shard_name(shard: &str) -> bool {
    !shard.is_empty()
        && shard.len() <= 64
        && shard
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Splits a checkpoint file name `ckpt-<shard>-<steps>.ckpt` into
/// `(shard, steps)`. Steps are the *last* `-`-separated token, so shard
/// names may themselves contain dashes.
fn parse_ckpt_name(name: &str) -> Option<(&str, u64)> {
    let stem = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
    let (shard, steps) = stem.rsplit_once('-')?;
    if shard.is_empty() {
        return None;
    }
    steps.parse::<u64>().ok().map(|s| (shard, s))
}

/// All shards with at least one checkpoint in `dir`, each mapped to its
/// newest checkpoint file, sorted by shard name. This is what a restarting
/// daemon scans on boot to rebuild its fleet.
pub fn shard_checkpoints(dir: &Path) -> Result<Vec<(String, PathBuf)>, CheckpointError> {
    let mut best: std::collections::BTreeMap<String, (u64, PathBuf)> =
        std::collections::BTreeMap::new();
    let found = storage::list_dir(dir, |name| {
        parse_ckpt_name(name).map(|(shard, steps)| (shard.to_string(), steps))
    })?;
    for ((shard, steps), path) in found {
        match best.get(&shard) {
            Some((b, _)) if *b >= steps => {}
            _ => {
                best.insert(shard, (steps, path));
            }
        }
    }
    Ok(best.into_iter().map(|(s, (_, p))| (s, p)).collect())
}

/// Every checkpoint for one shard in `dir`, newest first, as
/// `(steps, path)` pairs. Recovery walks this list until one file
/// validates: a corrupt newest checkpoint falls back to its retained
/// predecessor instead of abandoning the shard.
pub fn shard_checkpoint_history(
    dir: &Path,
    shard: &str,
) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
    let mut v = storage::list_dir(dir, |name| {
        parse_ckpt_name(name).and_then(|(s, steps)| (s == shard).then_some(steps))
    })?;
    v.sort_by_key(|e| std::cmp::Reverse(e.0));
    Ok(v)
}

/// Periodic checkpoint driver for one shard namespace: call
/// [`Checkpointer::due`] once per absorbed batch, and when it says so write
/// the state with [`Checkpointer::write_state`] as
/// `ckpt-<shard>-<steps>.ckpt`, keeping the newest
/// [`Checkpointer::with_retention`] files.
///
/// Retention runs from memory: the checkpointer lists its namespace in the
/// directory once, on its first save, and from then on records its own
/// writes and deletions. It assumes it is the one writer of its namespace,
/// which the daemon's one shard per tenant guarantees.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    every: usize,
    since: usize,
    shard: String,
    keep: usize,
    /// This namespace's checkpoints as `(steps, path)`, the latest save
    /// first: `None` until the first save lists the directory.
    retained: Option<Vec<(u64, PathBuf)>>,
}

impl Checkpointer {
    /// A checkpointer writing into `dir` every `every` batches
    /// (`every == 0` is treated as 1), its files namespaced to one shard
    /// so many shards can share a single checkpoint directory without
    /// their file names — or their atomic-rename temp siblings —
    /// colliding. `shard` must satisfy [`is_valid_shard_name`]. Creates
    /// the directory.
    pub fn for_shard(
        dir: impl Into<PathBuf>,
        every: usize,
        shard: &str,
    ) -> Result<Checkpointer, CheckpointError> {
        if !is_valid_shard_name(shard) {
            return Err(CheckpointError::BadHeader(format!(
                "invalid shard name `{shard}`: need 1-64 chars of [A-Za-z0-9_-]"
            )));
        }
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Checkpointer {
            dir,
            every: every.max(1),
            since: 0,
            shard: shard.to_string(),
            keep: 3,
            retained: None,
        })
    }

    /// Sets the keep-last-K retention budget (default 3). After every
    /// write, all but the newest `keep` checkpoints in this
    /// checkpointer's namespace are deleted; the file just written is
    /// always among the survivors. `keep == 0` disables pruning.
    pub fn with_retention(mut self, keep: usize) -> Checkpointer {
        self.keep = keep;
        self
    }

    /// The keep-last-K retention budget.
    pub fn retention(&self) -> usize {
        self.keep
    }

    /// Registers one absorbed batch; true when a checkpoint is due (every
    /// `every`-th call).
    pub fn due(&mut self) -> bool {
        self.since += 1;
        if self.since < self.every {
            return false;
        }
        self.since = 0;
        true
    }

    /// Writes arbitrary serialisable state unconditionally, keyed by
    /// `steps` in the file name, applies retention, and returns the steps
    /// of the oldest checkpoint still on disk: the floor a WAL can
    /// truncate to while every retained checkpoint stays a valid replay
    /// base. A file whose deletion failed stays counted, so the floor
    /// never passes it.
    ///
    /// With `keep ≥ 2` the files this save retires are unlinked *before*
    /// the new file is written, so the directory fsync that makes the
    /// rename durable commits the unlinks too: one file fsync and one
    /// directory fsync per save. The newest checkpoint already on disk is
    /// never among them, so a crash at any point leaves it in place. With
    /// `keep == 1` the one old file can go only after the new one is
    /// durable, which costs a second directory fsync.
    ///
    /// The first save lists the directory; later ones list nothing. A
    /// failed listing fails the save before anything is written.
    pub fn write_state<T: serde::Serialize>(
        &mut self,
        steps: usize,
        state: &T,
    ) -> Result<u64, CheckpointError> {
        let path = self
            .dir
            .join(format!("ckpt-{}-{steps:012}.ckpt", self.shard));
        let steps = steps as u64;
        let mut retained = match self.retained.take() {
            Some(r) => r,
            None => shard_checkpoint_history(&self.dir, &self.shard)?,
        };
        // The new file replaces any checkpoint at its own path.
        retained.retain(|(s, _)| *s != steps);
        let mut deleted = 0;
        if self.keep >= 2 {
            deleted += storage::prune_keep_last(&mut retained, self.keep - 1);
        }
        let saved = save_state_checkpoint(state, &path);
        if saved.is_ok() {
            retained.insert(0, (steps, path));
            if self.keep == 1 {
                let late = storage::prune_keep_last(&mut retained, 1);
                if late > 0 {
                    let _ = storage::fsync_dir(&self.dir);
                }
                deleted += late;
            }
        }
        crate::obs::CHECKPOINT_PRUNED.add(deleted as u64);
        let floor = retained.iter().map(|(s, _)| *s).min();
        self.retained = Some(retained);
        saved?;
        Ok(floor.unwrap_or(steps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("imrdmd-ckpt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn plant(dir: &Path, shard: &str, steps: u64) -> PathBuf {
        let path = dir.join(format!("ckpt-{shard}-{steps:012}.ckpt"));
        std::fs::write(&path, b"older").expect("plant");
        path
    }

    /// Writes `payload` under a header declaring `version` and the
    /// payload's true length and checksum.
    fn seal(path: &Path, version: u32, payload: &[u8]) {
        let (len, crc) = (payload.len().to_string(), format!("{:08x}", crc32(payload)));
        let mut bytes =
            storage::format_text_header(CHECKPOINT_MAGIC, version, &[&len, &crc]).into_bytes();
        bytes.extend_from_slice(payload);
        std::fs::write(path, bytes).expect("write");
    }

    fn codec_error<T: serde::de::DeserializeOwned + std::fmt::Debug>(path: &Path) -> String {
        match load_state_checkpoint::<T>(path) {
            Err(CheckpointError::Codec(m)) => m,
            other => panic!("expected a codec error, got {other:?}"),
        }
    }

    /// Every `Content` variant survives a v2 save and load, floats by bit
    /// pattern (NaN and -0.0 included), and saving the loaded value again
    /// writes the same bytes. The same state written as v1 JSON loads to
    /// the same value.
    #[test]
    fn v2_round_trips_bitwise_and_v1_still_loads() {
        type State = (Vec<f64>, Option<i64>, Vec<(String, bool)>, u64, Option<u8>);
        let state: State = (
            vec![0.1, -0.0, f64::MIN_POSITIVE, 5e-324, f64::MAX, 1.0 / 3.0],
            Some(-7),
            vec![("ü-key".to_string(), true), (String::new(), false)],
            u64::MAX,
            None,
        );
        let dir = scratch("roundtrip");
        let path = dir.join("state.ckpt");
        save_state_checkpoint(&state, &path).expect("save");
        let first = std::fs::read(&path).expect("read");
        assert!(first.starts_with(b"IMRDMD-CKPT v2 "));
        let back: State = load_state_checkpoint(&path).expect("load");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.0), bits(&state.0));
        assert_eq!(
            (&back.1, &back.2, back.3, back.4),
            (&state.1, &state.2, state.3, state.4)
        );
        save_state_checkpoint(&back, &path).expect("resave");
        assert_eq!(std::fs::read(&path).expect("read"), first);

        let nan = vec![f64::from_bits(0x7ff8_0000_dead_beef)];
        save_state_checkpoint(&nan, &path).expect("save");
        let back: Vec<f64> = load_state_checkpoint(&path).expect("load");
        assert_eq!(back[0].to_bits(), nan[0].to_bits());

        let json = serde_json::to_string(&state).expect("json");
        seal(&path, 1, json.as_bytes());
        let v1: State = load_state_checkpoint(&path).expect("v1 loads");
        assert_eq!(bits(&v1.0), bits(&state.0));
        assert_eq!(
            (&v1.1, &v1.2, v1.3, v1.4),
            (&state.1, &state.2, state.3, state.4)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A payload nested 200,000 levels deep is a codec error in both
    /// versions, not a stack overflow; nesting up to the cap decodes.
    #[test]
    fn deep_nesting_is_a_codec_error_in_both_versions() {
        let dir = scratch("deep");
        let path = dir.join("deep.ckpt");
        seal(&path, 1, &vec![b'['; 200_000]);
        assert!(codec_error::<u64>(&path).contains("nesting deeper than 128 levels"));
        let level = [TAG_SEQ, 1, 0, 0, 0];
        seal(&path, 2, &level.repeat(200_000));
        assert!(codec_error::<u64>(&path).starts_with("nesting deeper than the cap"));

        let mut deepest = level.repeat(serde::MAX_DEPTH - 1);
        deepest.push(TAG_NULL);
        assert!(decode_payload(&deepest).is_ok());
        let mut deeper = level.repeat(serde::MAX_DEPTH);
        deeper.push(TAG_NULL);
        assert!(decode_payload(&deeper).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sealed payloads that are not a well-formed v2 value fail typed, and
    /// versions outside v1–v2 are refused.
    #[test]
    fn malformed_v2_payloads_and_other_versions_are_refused() {
        let dir = scratch("malformed");
        let path = dir.join("bad.ckpt");
        let cases: [(&[u8], &str); 7] = [
            (&[], "payload ends inside a value"),
            (&[TAG_F64, 0, 0, 0], "payload ends inside a value"),
            (&[9], "unknown tag"),
            (
                &[TAG_SEQ, 0xff, 0xff, 0xff, 0xff, TAG_NULL],
                "count exceeds the bytes left",
            ),
            (
                &[TAG_MAP, 1, 0, 0, 0, 0, 0, 0, 0],
                "count exceeds the bytes left",
            ),
            (&[TAG_STR, 2, 0, 0, 0, 0xc3, 0x28], "string is not UTF-8"),
            (&[TAG_NULL, TAG_NULL], "trailing bytes after the value"),
        ];
        for (payload, want) in cases {
            seal(&path, 2, payload);
            let got = codec_error::<Option<u64>>(&path);
            assert!(got.starts_with(want), "{payload:?}: {got}");
        }
        for version in [0, 3] {
            seal(&path, version, &[TAG_NULL]);
            assert!(matches!(
                load_state_checkpoint::<Option<u64>>(&path),
                Err(CheckpointError::UnsupportedVersion(v)) if v == version
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn steps_on_disk(dir: &Path, shard: &str) -> Vec<u64> {
        shard_checkpoint_history(dir, shard)
            .expect("list")
            .into_iter()
            .map(|(s, _)| s)
            .collect()
    }

    /// The first save lists what earlier runs left, keeps exactly `keep`
    /// files of its own namespace, leaves other namespaces alone and
    /// reports the oldest retained file as the floor.
    #[test]
    fn first_save_prunes_what_earlier_runs_left() {
        let dir = scratch("inherit");
        for s in [10, 20, 30, 40, 50] {
            plant(&dir, "a", s);
        }
        let others = [plant(&dir, "b", 5), plant(&dir, "b", 60)];
        let mut ck = Checkpointer::for_shard(&dir, 1, "a")
            .expect("ck")
            .with_retention(3);
        assert_eq!(ck.write_state(60, &vec![1.0f64]).expect("save"), 40);
        assert_eq!(steps_on_disk(&dir, "a"), [60, 50, 40]);
        assert_eq!(ck.write_state(70, &vec![2.0f64]).expect("save"), 50);
        assert_eq!(steps_on_disk(&dir, "a"), [70, 60, 50]);
        assert!(others.iter().all(|p| p.exists()), "namespace b untouched");
        assert_eq!(steps_on_disk(&dir, "b"), [60, 5]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// After its first save a checkpointer lists nothing: a file planted
    /// behind its back is not its own and is never pruned, so the floor
    /// follows the files it wrote.
    #[test]
    fn later_saves_run_from_memory() {
        let dir = scratch("memory");
        let mut ck = Checkpointer::for_shard(&dir, 1, "a")
            .expect("ck")
            .with_retention(2);
        assert_eq!(ck.write_state(10, &1u64).expect("save"), 10);
        let stray = plant(&dir, "a", 1);
        assert_eq!(ck.write_state(20, &2u64).expect("save"), 10);
        assert_eq!(ck.write_state(30, &3u64).expect("save"), 20);
        assert!(stray.exists());
        assert_eq!(steps_on_disk(&dir, "a"), [30, 20, 1]);
        // Saving again at the same steps replaces that file in place.
        assert_eq!(ck.write_state(30, &4u64).expect("save"), 20);
        assert_eq!(steps_on_disk(&dir, "a"), [30, 20, 1]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keep_one_and_keep_zero() {
        let dir = scratch("keep01");
        for s in [10, 20] {
            plant(&dir, "one", s);
            plant(&dir, "all", s);
        }
        let mut one = Checkpointer::for_shard(&dir, 1, "one")
            .expect("ck")
            .with_retention(1);
        assert_eq!(one.write_state(30, &1u64).expect("save"), 30);
        assert_eq!(steps_on_disk(&dir, "one"), [30]);
        assert_eq!(one.write_state(40, &2u64).expect("save"), 40);
        assert_eq!(steps_on_disk(&dir, "one"), [40]);
        let mut all = Checkpointer::for_shard(&dir, 1, "all")
            .expect("ck")
            .with_retention(0);
        assert_eq!(all.write_state(30, &1u64).expect("save"), 10);
        assert_eq!(all.write_state(40, &2u64).expect("save"), 10);
        assert_eq!(steps_on_disk(&dir, "all"), [40, 30, 20, 10]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint that cannot be deleted (here a directory under a
    /// checkpoint's name) stays counted: the floor stops at it instead of
    /// passing a file still on disk, and later saves retry it.
    #[test]
    fn an_undeletable_checkpoint_holds_the_floor() {
        let dir = scratch("stuck");
        for s in [20, 30] {
            plant(&dir, "a", s);
        }
        let stuck = dir.join(format!("ckpt-a-{:012}.ckpt", 10));
        std::fs::create_dir(&stuck).expect("mkdir");
        let mut ck = Checkpointer::for_shard(&dir, 1, "a")
            .expect("ck")
            .with_retention(2);
        assert_eq!(ck.write_state(40, &1u64).expect("save"), 10);
        assert_eq!(steps_on_disk(&dir, "a"), [40, 30, 10]);
        assert_eq!(ck.write_state(50, &2u64).expect("save"), 10);
        assert_eq!(steps_on_disk(&dir, "a"), [50, 40, 10]);
        std::fs::remove_dir(&stuck).expect("rmdir");
        assert_eq!(ck.write_state(60, &3u64).expect("save"), 50);
        assert_eq!(steps_on_disk(&dir, "a"), [60, 50]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
