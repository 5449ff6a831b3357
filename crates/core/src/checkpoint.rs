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
//! IMRDMD-CKPT v1 <payload-bytes> <crc32-hex>\n
//! { ...serde-JSON state... }
//! ```
//!
//! Floats serialise via Rust's shortest round-trip representation, so a
//! restored model's [`IMrDmd::reconstruct`] is bitwise-identical to the
//! checkpointed one.
//!
//! [`IMrDmd`]: crate::imrdmd::IMrDmd
//! [`IMrDmd::reconstruct`]: crate::imrdmd::IMrDmd::reconstruct

use crate::storage::{self, crc32, HeaderError};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// First token of every checkpoint file.
pub const CHECKPOINT_MAGIC: &str = "IMRDMD-CKPT";
/// Current on-disk format version.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`CHECKPOINT_MAGIC`] (or the header
    /// line is malformed).
    BadHeader(String),
    /// The file's format version is newer than this build understands.
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
                    "checkpoint format v{v} is newer than supported v{CHECKPOINT_VERSION}"
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
/// the header line, then the payload, streamed through
/// [`storage::atomic_write`] without joining the two in memory. The
/// serving layer persists whole shards (model + ingest guard) this way; a
/// bare [`IMrDmd`](crate::imrdmd::IMrDmd) round-trips the same.
pub fn save_state_checkpoint<T: serde::Serialize>(
    state: &T,
    path: &Path,
) -> Result<(), CheckpointError> {
    let _span = crate::obs::CHECKPOINT_NS.span();
    let payload =
        serde_json::to_string(state).map_err(|e| CheckpointError::Codec(e.to_string()))?;
    let len = payload.len().to_string();
    let crc_hex = format!("{:08x}", crc32(payload.as_bytes()));
    let header =
        storage::format_text_header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, &[&len, &crc_hex]);
    crate::obs::CHECKPOINT_SAVES.inc();
    crate::obs::CHECKPOINT_BYTES.add((header.len() + payload.len()) as u64);
    storage::atomic_write(path, true, |w| {
        w.write_all(header.as_bytes())?;
        w.write_all(payload.as_bytes())
    })
    .map_err(CheckpointError::Io)
}

/// Restores any state written by [`save_state_checkpoint`], verifying
/// magic, version, length, and checksum before decoding.
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
    let payload =
        std::str::from_utf8(payload).map_err(|e| CheckpointError::Codec(e.to_string()))?;
    serde_json::from_str(payload).map_err(|e| CheckpointError::Codec(e.to_string()))
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
/// `ckpt-<shard>-<steps>.ckpt`, pruning all but the newest
/// [`Checkpointer::with_retention`] files after each write.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    every: usize,
    since: usize,
    shard: String,
    keep: usize,
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
    /// `steps` in the file name.
    pub fn write_state<T: serde::Serialize>(
        &self,
        steps: usize,
        state: &T,
    ) -> Result<PathBuf, CheckpointError> {
        let path = self
            .dir
            .join(format!("ckpt-{}-{steps:012}.ckpt", self.shard));
        save_state_checkpoint(state, &path)?;
        // Retention is best-effort: a failed prune never fails the save
        // that just succeeded.
        let _ = self.prune();
        Ok(path)
    }

    /// Deletes all but the newest `keep` checkpoints in this namespace
    /// (never the newest — the file most recently written) and returns
    /// the steps of the oldest *surviving* checkpoint, which is the floor
    /// a WAL can truncate to while every retained checkpoint stays a
    /// valid replay base. No-op (returning the current floor) when
    /// retention is disabled or nothing is due.
    pub fn prune(&self) -> Result<Option<u64>, CheckpointError> {
        let files = shard_checkpoint_history(&self.dir, &self.shard)?;
        let pruned = storage::prune_keep_last(&files, self.keep);
        for _ in 0..pruned.deleted {
            crate::obs::CHECKPOINT_PRUNED.inc();
        }
        if pruned.deleted > 0 {
            let _ = storage::fsync_dir(&self.dir);
        }
        Ok(pruned.floor)
    }
}
