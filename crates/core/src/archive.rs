//! Compressed on-disk mode archive with seekable time-range replay.
//!
//! The paper's headline storage claim is that the mode tree reduces
//! telemetry "from terabytes to megabytes". This module produces the
//! artefact, and every storage figure is its size ([`ArchiveInfo::ratio`]):
//! a fitted tree serialised as one CRC-framed block per tree node, with
//! the bulky mode matrices quantized and delta-encoded per
//! [`QuantTier`], plus a seekable index — so any time range can be
//! reconstructed by streaming only the blocks whose windows overlap it,
//! never deserialising the whole archive.
//!
//! On-disk layout (framing primitives from [`crate::storage`]):
//!
//! ```text
//! IMRDMD-ARCH v1 <tier>\n                      text header
//! [len][crc][meta]                             tier, node count, shape, dt
//! [len][crc][node 0] ... [len][crc][node N-1]  one block per tree node
//! [len][crc][index]                            N × (start, window, offset, len, level)
//! [u64 index-offset][u32 crc][IMRDMDIX]        20-byte fixed trailer
//! ```
//!
//! Writing streams the file in that order. [`encode_archive`] emits the
//! header, the metadata frame, each node's frame, the index frame and the
//! trailer one after another, counting offsets as the bytes go out; the
//! index comes last, so nothing is back-patched. The encoder itself holds
//! one encoded node block and the index (32 bytes a node), never a second
//! copy of the tree: [`write_archive`] streams into the buffered temp file
//! of [`storage::atomic_write`], and the daemon encodes into its response
//! body. The bytes are the layout above, unchanged.
//!
//! Every node block stores its eigenvalues and amplitudes as exact `f64`
//! bit patterns at every tier — quantizing ω would compound through
//! `exp(ω t)` — and only the `rows × k` mode matrix is tiered:
//!
//! * `f64` — XOR-delta of the raw 64-bit patterns (lossless; replay is
//!   **bitwise-identical** to the in-memory model's reconstruction);
//! * `f32` — XOR-delta of 32-bit patterns after an `f32` round
//!   (relative reconstruction error ≤ 1e-5);
//! * `q16` — per-mode-column scaled 16-bit integers with wrapping-delta
//!   encoding (relative reconstruction error ≤ 1e-2), the tier that
//!   realises the ≥100× paper ratio.
//!
//! Replay filters index entries by the node-admission rule that
//! reconstruction itself uses (`start < t1 && start + window > t0`) and
//! feeds the decoded nodes to the same reconstruction kernel **in file
//! order** (= tree iteration order). Nodes outside the range contribute
//! exactly nothing to a reconstruction, so skipping their blocks leaves
//! the floating-point addition order of the admitted nodes unchanged —
//! which is what makes f64-tier replay of any range bitwise-identical to
//! [`IMrDmd::reconstruct_range`] on the live model.
//!
//! Every block decodes through [`storage::ByteReader`], so no declared
//! length can overrun its block. `open` requires the first index entry to
//! be the root window `[0, n_steps)`; replay requires each node block to
//! agree with its index entry and the metadata's row count before the
//! output is sized. A damaged archive is a typed error, never a panic.

use crate::imrdmd::IMrDmd;
use crate::mrdmd::{reconstruct_nodes, ModeSet};
use crate::storage::{self, BlockError, ByteReader, HeaderError};
use hpc_linalg::pool::WorkerPool;
use hpc_linalg::{c64, CMat, Mat};
use std::io::{Read as _, Seek as _, Write};
use std::path::Path;

/// First token of every archive file.
pub const ARCHIVE_MAGIC: &str = "IMRDMD-ARCH";
/// Current on-disk format version.
pub const ARCHIVE_VERSION: u32 = 1;
/// Fixed trailer: `u64 index-offset + u32 crc32(offset) + 8-byte magic`.
const TRAILER_LEN: usize = 20;
/// Trailer magic, so `open` can reject non-archives before seeking.
const TRAILER_MAGIC: &[u8; 8] = b"IMRDMDIX";
/// Fixed node-payload prefix: level/start/window/step/row_offset (`u64`
/// each) + rows/k (`u32` each).
const NODE_PREFIX: usize = 5 * 8 + 2 * 4;
/// q16 quantization ceiling (symmetric, so the delta domain wraps cleanly).
const Q16_MAX: f64 = 32767.0;

// ---------------------------------------------------------------------------
// Quantization tiers
// ---------------------------------------------------------------------------

/// How aggressively an archive quantizes the mode matrices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum QuantTier {
    /// Exact 64-bit patterns: lossless, replay is bitwise.
    F64,
    /// 32-bit float round: relative error ≤ 1e-5.
    F32,
    /// Per-column scaled 16-bit integers: relative error ≤ 1e-2.
    Q16,
}

impl QuantTier {
    /// Parses the `--tier` flag grammar: `f64`, `f32`, `q16`.
    pub fn parse(s: &str) -> Option<QuantTier> {
        match s {
            "f64" => Some(QuantTier::F64),
            "f32" => Some(QuantTier::F32),
            "q16" => Some(QuantTier::Q16),
            _ => None,
        }
    }

    /// The flag token this tier parses from.
    pub fn as_str(self) -> &'static str {
        match self {
            QuantTier::F64 => "f64",
            QuantTier::F32 => "f32",
            QuantTier::Q16 => "q16",
        }
    }

    /// Documented relative L∞ reconstruction-error bound of this tier's
    /// replay against f64-tier replay (0 = bitwise).
    pub fn rel_error_bound(self) -> f64 {
        match self {
            QuantTier::F64 => 0.0,
            QuantTier::F32 => 1e-5,
            QuantTier::Q16 => 1e-2,
        }
    }

    fn code(self) -> u32 {
        match self {
            QuantTier::F64 => 0,
            QuantTier::F32 => 1,
            QuantTier::Q16 => 2,
        }
    }

    fn from_code(code: u32) -> Option<QuantTier> {
        match code {
            0 => Some(QuantTier::F64),
            1 => Some(QuantTier::F32),
            2 => Some(QuantTier::Q16),
            _ => None,
        }
    }

    /// Bytes one `rows`-long mode column occupies at this tier, or `None`
    /// when that overflows.
    fn column_bytes(self, rows: usize) -> Option<usize> {
        match self {
            QuantTier::F64 => rows.checked_mul(16),
            QuantTier::F32 => rows.checked_mul(8),
            // Per-column f64 scale + 2 × i16 per element.
            QuantTier::Q16 => rows.checked_mul(4)?.checked_add(8),
        }
    }
}

impl std::fmt::Display for QuantTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why an archive could not be written, opened, or replayed.
#[derive(Debug)]
pub enum ArchiveError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file's header line or trailer is not a valid archive envelope.
    BadHeader(String),
    /// A framed block is torn, truncated, or checksum-damaged.
    Block(BlockError),
    /// A block passed its CRC but its payload does not decode.
    Codec(String),
    /// The requested replay range is outside the archived timeline.
    BadRange {
        /// Requested range start (snapshot index).
        t0: usize,
        /// Requested range end (exclusive).
        t1: usize,
        /// Snapshots the archive covers.
        n_steps: usize,
    },
}

impl std::fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchiveError::Io(e) => write!(f, "archive io error: {e}"),
            ArchiveError::BadHeader(m) => write!(f, "bad archive header: {m}"),
            ArchiveError::Block(e) => write!(f, "damaged archive block: {e}"),
            ArchiveError::Codec(m) => write!(f, "archive block decode failed: {m}"),
            ArchiveError::BadRange { t0, t1, n_steps } => {
                write!(
                    f,
                    "replay range [{t0}, {t1}) outside archived timeline of {n_steps} steps"
                )
            }
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io(e)
    }
}

impl From<BlockError> for ArchiveError {
    fn from(e: BlockError) -> Self {
        ArchiveError::Block(e)
    }
}

// ---------------------------------------------------------------------------
// Node codec
// ---------------------------------------------------------------------------

fn push_c64_exact(out: &mut Vec<u8>, vs: &[c64]) {
    for v in vs {
        out.extend_from_slice(&v.re.to_bits().to_le_bytes());
        out.extend_from_slice(&v.im.to_bits().to_le_bytes());
    }
}

/// Quantizes `v` onto the symmetric 16-bit grid for `scale`.
fn q16_quant(v: f64, scale: f64) -> i16 {
    if scale == 0.0 {
        return 0;
    }
    // The scale is derived from the column max, so the clamp only guards
    // rounding at the extremes.
    (v / scale).round().clamp(-Q16_MAX, Q16_MAX) as i16
}

fn encode_modes(out: &mut Vec<u8>, modes: &CMat, tier: QuantTier) {
    let (rows, k) = (modes.rows(), modes.cols());
    match tier {
        QuantTier::F64 => {
            // Column-major XOR-delta of the raw bit patterns: adjacent
            // rows of one mode are spatially smooth, so deltas share
            // leading bytes (and compress further under any outer
            // compressor) while staying exactly invertible.
            for j in 0..k {
                let (mut prev_re, mut prev_im) = (0u64, 0u64);
                for i in 0..rows {
                    let v = modes[(i, j)];
                    let (re, im) = (v.re.to_bits(), v.im.to_bits());
                    out.extend_from_slice(&(re ^ prev_re).to_le_bytes());
                    out.extend_from_slice(&(im ^ prev_im).to_le_bytes());
                    prev_re = re;
                    prev_im = im;
                }
            }
        }
        QuantTier::F32 => {
            for j in 0..k {
                let (mut prev_re, mut prev_im) = (0u32, 0u32);
                for i in 0..rows {
                    let v = modes[(i, j)];
                    let (re, im) = ((v.re as f32).to_bits(), (v.im as f32).to_bits());
                    out.extend_from_slice(&(re ^ prev_re).to_le_bytes());
                    out.extend_from_slice(&(im ^ prev_im).to_le_bytes());
                    prev_re = re;
                    prev_im = im;
                }
            }
        }
        QuantTier::Q16 => {
            for j in 0..k {
                let mut max_abs = 0.0f64;
                for i in 0..rows {
                    let v = modes[(i, j)];
                    max_abs = max_abs.max(v.re.abs()).max(v.im.abs());
                }
                let scale = if max_abs == 0.0 {
                    0.0
                } else {
                    max_abs / Q16_MAX
                };
                out.extend_from_slice(&scale.to_bits().to_le_bytes());
                let (mut prev_re, mut prev_im) = (0i16, 0i16);
                for i in 0..rows {
                    let v = modes[(i, j)];
                    let (re, im) = (q16_quant(v.re, scale), q16_quant(v.im, scale));
                    // Wrapping deltas are lossless in the u16 ring, so the
                    // quantized grid round-trips exactly.
                    let dre = (re as u16).wrapping_sub(prev_re as u16);
                    let dim = (im as u16).wrapping_sub(prev_im as u16);
                    out.extend_from_slice(&dre.to_le_bytes());
                    out.extend_from_slice(&dim.to_le_bytes());
                    prev_re = re;
                    prev_im = im;
                }
            }
        }
    }
}

/// Encodes one node block into `out`, which is cleared first so one
/// buffer serves every node of an archive.
fn encode_node(out: &mut Vec<u8>, node: &ModeSet, tier: QuantTier) {
    let (rows, k) = (node.modes.rows(), node.modes.cols());
    let column = 48 + tier.column_bytes(rows).unwrap_or(0);
    out.clear();
    out.reserve(NODE_PREFIX + k * column);
    for v in [
        node.level as u64,
        node.start as u64,
        node.window as u64,
        node.step as u64,
        node.row_offset as u64,
    ] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(rows as u32).to_le_bytes());
    out.extend_from_slice(&(k as u32).to_le_bytes());
    // Eigenvalues and amplitudes stay exact at every tier: replay scales
    // them through exp(ω t), which would amplify any quantization error
    // across the window.
    push_c64_exact(out, &node.lambdas);
    push_c64_exact(out, &node.omegas);
    push_c64_exact(out, &node.amplitudes);
    encode_modes(out, &node.modes, tier);
}

/// `k` exact complex values.
fn read_c64s(r: &mut ByteReader, k: usize) -> Option<Vec<c64>> {
    let mut vs = r.records(k, 16)?;
    (0..k)
        .map(|_| Some(c64::new(vs.f64()?, vs.f64()?)))
        .collect()
}

fn decode_modes(r: &mut ByteReader, rows: usize, k: usize, tier: QuantTier) -> Option<CMat> {
    // The records check bounds `rows × k` by the block's length, so the
    // matrix is never larger than the bytes that fill it.
    let mut col = r.records(k, tier.column_bytes(rows)?)?;
    let mut modes = CMat::zeros(rows, k);
    let cells = modes.as_mut_slice();
    match tier {
        QuantTier::F64 => {
            for j in 0..k {
                let (mut re, mut im) = (0u64, 0u64);
                for i in 0..rows {
                    re ^= col.u64()?;
                    im ^= col.u64()?;
                    cells[i * k + j] = c64::new(f64::from_bits(re), f64::from_bits(im));
                }
            }
        }
        QuantTier::F32 => {
            for j in 0..k {
                let (mut re, mut im) = (0u32, 0u32);
                for i in 0..rows {
                    re ^= col.u32()?;
                    im ^= col.u32()?;
                    cells[i * k + j] =
                        c64::new(f32::from_bits(re) as f64, f32::from_bits(im) as f64);
                }
            }
        }
        QuantTier::Q16 => {
            for j in 0..k {
                let scale = col.f64()?;
                let (mut re, mut im) = (0u16, 0u16);
                for i in 0..rows {
                    re = re.wrapping_add(col.u16()?);
                    im = im.wrapping_add(col.u16()?);
                    cells[i * k + j] =
                        c64::new((re as i16) as f64 * scale, (im as i16) as f64 * scale);
                }
            }
        }
    }
    Some(modes)
}

/// Decodes one node block; `None` when the payload does not hold exactly
/// the shape it declares.
fn decode_node(payload: &[u8], tier: QuantTier) -> Option<ModeSet> {
    let mut r = ByteReader::new(payload);
    let head = [r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let [level, start, window, step, row_offset] = head.map(|v| v as usize);
    let (rows, k) = (r.u32()? as usize, r.u32()? as usize);
    let lambdas = read_c64s(&mut r, k)?;
    let omegas = read_c64s(&mut r, k)?;
    let amplitudes = read_c64s(&mut r, k)?;
    let modes = decode_modes(&mut r, rows, k, tier)?;
    r.finish()?;
    Some(ModeSet {
        level,
        start,
        window,
        step,
        row_offset,
        modes,
        lambdas,
        omegas,
        amplitudes,
    })
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Shape and size summary of an archive (returned by writes, carried by
/// [`ArchiveReader`]).
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct ArchiveInfo {
    /// The quantization tier the mode matrices were stored at.
    pub tier: QuantTier,
    /// Tree nodes (= node blocks) in the archive.
    pub n_nodes: usize,
    /// Sensor rows the archived model covers.
    pub n_rows: usize,
    /// Snapshots the archived model covers.
    pub n_steps: usize,
    /// Snapshot spacing in seconds.
    pub dt: f64,
    /// Total archive size in bytes.
    pub bytes: u64,
}

impl ArchiveInfo {
    /// Bytes of the raw `n_rows × n_steps` `f64` snapshots the tree covers.
    pub fn raw_bytes(&self) -> u64 {
        // Saturating: an opened archive's shape comes from its file.
        let values = (self.n_rows as u64).saturating_mul(self.n_steps as u64);
        values.saturating_mul(std::mem::size_of::<f64>() as u64)
    }

    /// The compression ratio: raw `f64` bytes over archive bytes.
    pub fn ratio(&self) -> f64 {
        self.raw_bytes() as f64 / self.bytes as f64
    }
}

/// Streams `model` to `w` as an archive: [`encode_tree`] over its nodes,
/// shape and `dt`. [`write_archive`] is it run inside
/// [`storage::atomic_write`].
pub fn encode_archive(
    model: &IMrDmd,
    tier: QuantTier,
    w: &mut impl Write,
) -> std::io::Result<ArchiveInfo> {
    let dt = model.config().mr.dt;
    encode_tree(model.nodes(), model.n_rows(), model.n_steps(), dt, tier, w)
}

/// The one archive encoder, for a streamed [`IMrDmd`] and a batch
/// [`crate::mrdmd::MrDmd`] alike: streams the tree `nodes`, covering
/// `n_rows × n_steps` snapshots `dt` apart, to `w` in file order — the
/// header line, the metadata frame, one frame per node, the index frame
/// and the trailer. Offsets are counted as the bytes go out and the index
/// comes last, so nothing is back-patched: `w` may be any writer
/// (`io::sink()` measures a tree), and the encoder holds one node block
/// and the index. Returns the summary, `bytes` being the bytes written.
pub fn encode_tree<'a>(
    nodes: impl Iterator<Item = &'a ModeSet> + Clone,
    n_rows: usize,
    n_steps: usize,
    dt: f64,
    tier: QuantTier,
    w: &mut impl Write,
) -> std::io::Result<ArchiveInfo> {
    let n_nodes = nodes.clone().count();
    let header = storage::format_text_header(ARCHIVE_MAGIC, ARCHIVE_VERSION, &[tier.as_str()]);
    w.write_all(header.as_bytes())?;
    let mut at = header.len() as u64;
    let mut frame = |w: &mut _, payload: &[u8]| {
        storage::write_frame(w, payload)?;
        let start = at;
        at += (storage::FRAME_HEAD + payload.len()) as u64;
        Ok::<_, std::io::Error>(start)
    };
    let mut meta = Vec::with_capacity(32);
    meta.extend_from_slice(&tier.code().to_le_bytes());
    meta.extend_from_slice(&(n_nodes as u32).to_le_bytes());
    meta.extend_from_slice(&(n_rows as u64).to_le_bytes());
    meta.extend_from_slice(&(n_steps as u64).to_le_bytes());
    meta.extend_from_slice(&dt.to_bits().to_le_bytes());
    frame(w, &meta)?;
    // Blocks are written in tree-iteration order; replay preserves file
    // order, which is what keeps f64 replay bitwise. The index collects
    // `(start, window, offset, len, level)` per block as they go out.
    let mut index = Vec::with_capacity(4 + 32 * n_nodes);
    index.extend_from_slice(&(n_nodes as u32).to_le_bytes());
    let mut block = Vec::new();
    for node in nodes {
        encode_node(&mut block, node, tier);
        let offset = frame(w, &block)?;
        index.extend_from_slice(&(node.start as u64).to_le_bytes());
        index.extend_from_slice(&(node.window as u64).to_le_bytes());
        index.extend_from_slice(&offset.to_le_bytes());
        index.extend_from_slice(&(block.len() as u32).to_le_bytes());
        index.extend_from_slice(&(node.level as u32).to_le_bytes());
    }
    let offset_bytes = frame(w, &index)?.to_le_bytes();
    w.write_all(&offset_bytes)?;
    w.write_all(&storage::crc32(&offset_bytes).to_le_bytes())?;
    w.write_all(TRAILER_MAGIC)?;
    let info = ArchiveInfo {
        tier,
        n_nodes,
        n_rows,
        n_steps,
        dt,
        bytes: at + TRAILER_LEN as u64,
    };
    // Recorded here rather than in `write_archive` so served archives
    // (encoded into the response, never touching disk) count too.
    crate::obs::ARCHIVE_SAVES.inc();
    crate::obs::ARCHIVE_BYTES.add(info.bytes);
    Ok(info)
}

/// Writes `model` as an archive at `path` — atomically (temp sibling +
/// rename + fsync), like every other persistent artefact. The archive is
/// streamed through [`encode_archive`] into the buffered temp file, so the
/// write holds one node block rather than a second copy of the tree; on
/// any error nothing appears under `path`.
pub fn write_archive(
    model: &IMrDmd,
    path: &Path,
    tier: QuantTier,
) -> Result<ArchiveInfo, ArchiveError> {
    let _span = crate::obs::ARCHIVE_NS.span();
    Ok(storage::atomic_write(path, true, |w| {
        encode_archive(model, tier, w)
    })?)
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// One index entry: where a node block lives and what time window it
/// covers.
#[derive(Clone, Copy, Debug)]
pub struct IndexEntry {
    /// Absolute snapshot index the node's window starts at.
    pub start: u64,
    /// Window length in snapshots.
    pub window: u64,
    /// Absolute byte offset of the node's frame head.
    pub offset: u64,
    /// Node payload length in bytes.
    pub len: u32,
    /// Tree level of the node.
    pub level: u32,
}

impl IndexEntry {
    /// The node-admission rule reconstruction uses: does this node's
    /// window overlap `[t0, t1)`?
    pub fn admits(&self, t0: usize, t1: usize) -> bool {
        self.start < t1 as u64 && self.start.saturating_add(self.window) > t0 as u64
    }

    /// Reads one 32-byte entry; `None` past the end or when its window
    /// `start + window` overflows.
    fn read(r: &mut ByteReader) -> Option<IndexEntry> {
        let entry = IndexEntry {
            start: r.u64()?,
            window: r.u64()?,
            offset: r.u64()?,
            len: r.u32()?,
            level: r.u32()?,
        };
        entry.start.checked_add(entry.window).map(|_| entry)
    }
}

/// An open archive: header, metadata, and index are resident; node
/// blocks are streamed from disk per replay.
#[derive(Debug)]
pub struct ArchiveReader {
    file: std::fs::File,
    info: ArchiveInfo,
    index: Vec<IndexEntry>,
    blocks_read: u64,
}

impl ArchiveReader {
    /// Opens an archive: validates the header line and trailer, then
    /// loads the index and metadata blocks (but no node blocks).
    pub fn open(path: &Path) -> Result<ArchiveReader, ArchiveError> {
        let mut file = std::fs::File::open(path)?;
        let total = file.metadata()?.len();
        let header = storage::read_text_header(&mut file, ARCHIVE_MAGIC, ARCHIVE_VERSION);
        let header_end = header
            .map_err(|e| match e {
                HeaderError::Io(e) => ArchiveError::Io(e),
                HeaderError::NoLine => ArchiveError::BadHeader("no header line".into()),
                HeaderError::NotUtf8 => ArchiveError::BadHeader("header not valid UTF-8".into()),
                HeaderError::BadMagic => {
                    ArchiveError::BadHeader(format!("missing `{ARCHIVE_MAGIC}` magic"))
                }
                HeaderError::NoVersion => ArchiveError::BadHeader("missing version token".into()),
                HeaderError::Unsupported(v) => ArchiveError::BadHeader(format!(
                    "archive format v{v} is newer than supported v{ARCHIVE_VERSION}"
                )),
            })?
            .len as u64;
        // Trailer → index offset.
        if total < header_end + TRAILER_LEN as u64 {
            return Err(ArchiveError::BadHeader("file too short for trailer".into()));
        }
        let mut trailer = [0u8; TRAILER_LEN];
        file.seek(std::io::SeekFrom::Start(total - TRAILER_LEN as u64))?;
        file.read_exact(&mut trailer)?;
        // Fixed-size reads of a fixed-size array: none can come up short.
        let mut t = ByteReader::new(&trailer);
        let (index_offset, trailer_crc) = (t.u64().unwrap_or(0), t.u32().unwrap_or(0));
        if t.bytes(TRAILER_MAGIC.len()) != Some(&TRAILER_MAGIC[..]) {
            return Err(ArchiveError::BadHeader("missing trailer magic".into()));
        }
        if storage::crc32(&index_offset.to_le_bytes()) != trailer_crc {
            return Err(ArchiveError::BadHeader("trailer checksum mismatch".into()));
        }
        if index_offset < header_end || index_offset >= total {
            return Err(ArchiveError::BadHeader(
                "trailer points outside the file".into(),
            ));
        }
        // Metadata block (always the first block, right after the header).
        let meta = storage::read_block_at(&mut file, header_end)?;
        let mut m = ByteReader::new(&meta);
        let bad_meta = || ArchiveError::Codec("truncated metadata block".into());
        let tier_code = m.u32().ok_or_else(bad_meta)?;
        let tier = QuantTier::from_code(tier_code)
            .ok_or_else(|| ArchiveError::Codec(format!("unknown quantization tier {tier_code}")))?;
        let n_nodes = m.u32().ok_or_else(bad_meta)? as usize;
        let n_rows = m.u64().ok_or_else(bad_meta)? as usize;
        let n_steps = m.u64().ok_or_else(bad_meta)? as usize;
        let dt = m.f64().ok_or_else(bad_meta)?;
        // Index block.
        let raw = storage::read_block_at(&mut file, index_offset)?;
        let mut r = ByteReader::new(&raw);
        let bad_index = || ArchiveError::Codec("truncated index block".into());
        let count = r.u32().ok_or_else(bad_index)? as usize;
        let mut entries = match r.records(count, 32) {
            Some(entries) if count == n_nodes && r.finish().is_some() => entries,
            _ => {
                return Err(ArchiveError::Codec(format!(
                    "index lists {count} blocks, metadata promises {n_nodes}"
                )))
            }
        };
        let index = (0..count)
            .map(|_| IndexEntry::read(&mut entries))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| ArchiveError::Codec("index entry window overflows".into()))?;
        // Replay sizes its output from the metadata and trusts the root to
        // cover the whole timeline, so the two must agree.
        let root = index.first();
        if !root.is_some_and(|r| r.level == 1 && r.start == 0 && r.window == n_steps as u64) {
            return Err(ArchiveError::Codec(format!(
                "first index entry is not the root window [0, {n_steps})"
            )));
        }
        if n_rows
            .checked_mul(n_steps)
            .is_none_or(|n| n > isize::MAX as usize / 8)
        {
            return Err(ArchiveError::Codec(format!(
                "{n_rows} rows × {n_steps} steps overflow a replay"
            )));
        }
        Ok(ArchiveReader {
            file,
            info: ArchiveInfo {
                tier,
                n_nodes,
                n_rows,
                n_steps,
                dt,
                bytes: total,
            },
            index,
            blocks_read: 0,
        })
    }

    /// Shape and tier metadata of the open archive.
    pub fn info(&self) -> &ArchiveInfo {
        &self.info
    }

    /// The seekable block index, in file (= tree-iteration) order.
    pub fn index(&self) -> &[IndexEntry] {
        &self.index
    }

    /// Node blocks streamed from disk by replays on this reader so far.
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read
    }

    /// Reconstructs snapshots `[t0, t1)` by streaming only the node
    /// blocks whose windows overlap the range. At the f64 tier the result
    /// is bitwise-identical to [`IMrDmd::reconstruct_range`] on the model
    /// that was archived; at lossy tiers it is within
    /// [`QuantTier::rel_error_bound`] of the f64 replay.
    pub fn replay(&mut self, t0: usize, t1: usize) -> Result<Mat, ArchiveError> {
        let _span = crate::obs::ARCHIVE_NS.span();
        if t0 > t1 || t1 > self.info.n_steps {
            return Err(ArchiveError::BadRange {
                t0,
                t1,
                n_steps: self.info.n_steps,
            });
        }
        let (tier, n_rows) = (self.info.tier, self.info.n_rows);
        let mut nodes = Vec::new();
        for (i, entry) in self.index.iter().enumerate() {
            if !entry.admits(t0, t1) {
                continue;
            }
            let payload = storage::read_block_at(&mut self.file, entry.offset)?;
            let node = decode_node(&payload, tier).ok_or_else(|| {
                ArchiveError::Codec(format!(
                    "node block {i} of {} bytes does not decode at tier {tier}",
                    payload.len()
                ))
            })?;
            // Reconstruction trusts the node's window and rows, and the
            // output is sized from the metadata: all three must agree, and
            // the root must span exactly the archive's rows.
            let rows = node.modes.rows();
            let fits = node
                .row_offset
                .checked_add(rows)
                .is_some_and(|end| end <= n_rows);
            if !fits
                || (i == 0 && rows != n_rows)
                || (node.start as u64, node.window as u64) != (entry.start, entry.window)
            {
                return Err(ArchiveError::Codec(format!(
                    "node block {i} disagrees with its index entry or the archive's {n_rows} rows"
                )));
            }
            nodes.push(node);
            self.blocks_read += 1;
            crate::obs::ARCHIVE_BLOCKS_READ.inc();
        }
        let refs: Vec<&ModeSet> = nodes.iter().collect();
        crate::obs::ARCHIVE_REPLAYS.inc();
        Ok(reconstruct_nodes(
            &refs,
            n_rows,
            t0,
            t1,
            self.info.dt,
            &WorkerPool::new(0),
        ))
    }

    /// Replays the whole archived timeline.
    pub fn replay_all(&mut self) -> Result<Mat, ArchiveError> {
        self.replay(0, self.info.n_steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imrdmd::{IMrDmd, IMrDmdConfig};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("imrdmd-archive-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn fitted(p: usize, t: usize) -> IMrDmd {
        let data = Mat::from_fn(p, t, |i, j| {
            let x = i as f64 / p as f64;
            let tt = j as f64;
            (0.01 * tt + 2.0 * x).sin() + 0.3 * (0.08 * tt + 5.0 * x).cos()
        });
        IMrDmd::fit(&data, &IMrDmdConfig::default())
    }

    #[test]
    fn f64_tier_replay_is_bitwise() {
        let dir = scratch("bitwise");
        let model = fitted(24, 512);
        let path = dir.join("model.arch");
        let info = write_archive(&model, &path, QuantTier::F64).expect("write");
        assert_eq!(info.n_steps, 512);
        let mut reader = ArchiveReader::open(&path).expect("open");
        let full = reader.replay_all().expect("replay");
        assert_eq!(full.as_slice(), model.reconstruct().as_slice());
        let range = reader.replay(100, 300).expect("replay");
        assert_eq!(
            range.as_slice(),
            model.reconstruct_range(100, 300).as_slice(),
            "range replay must be bitwise at the f64 tier"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn range_replay_streams_only_admitting_blocks() {
        let dir = scratch("seek");
        let model = fitted(16, 1024);
        let path = dir.join("model.arch");
        write_archive(&model, &path, QuantTier::F64).expect("write");
        let mut reader = ArchiveReader::open(&path).expect("open");
        let n_nodes = reader.info().n_nodes;
        reader.replay(0, 32).expect("replay");
        assert!(
            (reader.blocks_read() as usize) < n_nodes,
            "narrow range must not stream all {n_nodes} blocks"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lossy_tiers_stay_within_their_bounds() {
        let dir = scratch("lossy");
        let model = fitted(24, 512);
        let exact = model.reconstruct();
        let norm = exact
            .as_slice()
            .iter()
            .fold(0.0f64, |m, v| m.max(v.abs()))
            .max(1e-300);
        for tier in [QuantTier::F32, QuantTier::Q16] {
            let path = dir.join(format!("model.{tier}.arch"));
            write_archive(&model, &path, tier).expect("write");
            let mut reader = ArchiveReader::open(&path).expect("open");
            let approx = reader.replay_all().expect("replay");
            let err = exact
                .as_slice()
                .iter()
                .zip(approx.as_slice())
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
                / norm;
            assert!(
                err <= tier.rel_error_bound(),
                "tier {tier}: rel error {err:e} exceeds bound {:e}",
                tier.rel_error_bound()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_and_bitflipped_blocks_are_typed_errors() {
        let dir = scratch("damage");
        let model = fitted(16, 256);
        let path = dir.join("model.arch");
        write_archive(&model, &path, QuantTier::Q16).expect("write");
        let bytes = std::fs::read(&path).expect("read");

        // Bit-flip inside the first node block's payload.
        let reader = ArchiveReader::open(&path).expect("open");
        let at = reader.index()[0].offset as usize + storage::FRAME_HEAD + 10;
        drop(reader);
        let mut flipped = bytes.clone();
        flipped[at] ^= 0x04;
        std::fs::write(&path, &flipped).expect("write");
        let mut reader = ArchiveReader::open(&path).expect("open survives: index intact");
        assert!(matches!(
            reader.replay_all(),
            Err(ArchiveError::Block(BlockError::Checksum { .. }))
        ));

        // Truncate mid-file: the trailer is gone, open must fail cleanly.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("write");
        assert!(matches!(
            ArchiveReader::open(&path),
            Err(ArchiveError::BadHeader(_) | ArchiveError::Block(_))
        ));

        // Not an archive at all.
        std::fs::write(&path, b"IMRDMD-CKPT v1 2 abcd1234\n{}").expect("write");
        assert!(matches!(
            ArchiveReader::open(&path),
            Err(ArchiveError::BadHeader(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrites the payload of the frame at `offset` with `edit` and
    /// recomputes its CRC, so the damage reaches the decoder behind it.
    fn edit_block(bytes: &mut [u8], offset: usize, edit: impl FnOnce(&mut [u8])) {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("head")) as usize;
        let payload = offset + storage::FRAME_HEAD;
        edit(&mut bytes[payload..payload + len]);
        let crc = storage::crc32(&bytes[payload..payload + len]);
        bytes[offset + 4..payload].copy_from_slice(&crc.to_le_bytes());
    }

    fn archived(name: &str, tier: QuantTier) -> (PathBuf, PathBuf, Vec<u8>, Vec<IndexEntry>) {
        let dir = scratch(name);
        let path = dir.join("model.arch");
        write_archive(&fitted(16, 256), &path, tier).expect("write");
        let index = ArchiveReader::open(&path).expect("open").index().to_vec();
        let bytes = std::fs::read(&path).expect("read");
        (dir, path, bytes, index)
    }

    /// A CRC-valid node block declaring `rows = k = u32::MAX` used to
    /// overflow the mode-matrix length product during replay.
    #[test]
    fn node_block_with_overflowing_shape_is_a_codec_error() {
        let (dir, path, mut bytes, index) = archived("node-shape", QuantTier::F64);
        edit_block(&mut bytes, index[0].offset as usize, |p| {
            p[40..48].copy_from_slice(&[0xff; 8]);
        });
        std::fs::write(&path, &bytes).expect("write");
        let mut reader = ArchiveReader::open(&path).expect("open: index intact");
        assert!(matches!(reader.replay_all(), Err(ArchiveError::Codec(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An index entry whose `start + window` overflows is rejected at open,
    /// before any admission test adds the two.
    #[test]
    fn index_entry_with_overflowing_window_is_rejected_at_open() {
        let (dir, path, mut bytes, index) = archived("index-window", QuantTier::F64);
        let index_offset = u64::from_le_bytes(
            bytes[bytes.len() - 20..bytes.len() - 12]
                .try_into()
                .expect("8 bytes"),
        );
        let last = 4 + 32 * (index.len() - 1);
        edit_block(&mut bytes, index_offset as usize, |p| {
            p[last..last + 8].copy_from_slice(&1u64.to_le_bytes());
            p[last + 8..last + 16].copy_from_slice(&u64::MAX.to_le_bytes());
        });
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            ArchiveReader::open(&path),
            Err(ArchiveError::Codec(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Metadata that disagrees with the tree is a typed error. A corrupt
    /// row count used to size the replay output unchecked (an allocation
    /// of ~10^18 bytes that aborts the process); a corrupt step count no
    /// longer matches the root window.
    #[test]
    fn metadata_that_disagrees_with_the_tree_is_a_codec_error() {
        let (dir, path, bytes, _) = archived("meta", QuantTier::Q16);
        let header_end = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
        let mut rows = bytes.clone();
        edit_block(&mut rows, header_end, |p| {
            p[8..16].copy_from_slice(&(1u64 << 40).to_le_bytes());
        });
        std::fs::write(&path, &rows).expect("write");
        let mut reader = ArchiveReader::open(&path).expect("open: rows are checked at replay");
        assert!(matches!(reader.replay_all(), Err(ArchiveError::Codec(_))));
        let mut steps = bytes;
        edit_block(&mut steps, header_end, |p| {
            p[16..24].copy_from_slice(&(1u64 << 40).to_le_bytes());
        });
        std::fs::write(&path, &steps).expect("write");
        assert!(matches!(
            ArchiveReader::open(&path),
            Err(ArchiveError::Codec(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_range_is_rejected() {
        let dir = scratch("range");
        let model = fitted(8, 128);
        let path = dir.join("model.arch");
        write_archive(&model, &path, QuantTier::F64).expect("write");
        let mut reader = ArchiveReader::open(&path).expect("open");
        assert!(matches!(
            reader.replay(0, 129),
            Err(ArchiveError::BadRange { .. })
        ));
        assert!(matches!(
            reader.replay(64, 32),
            Err(ArchiveError::BadRange { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A write into a directory that does not exist is an I/O error and
    /// leaves nothing behind: no archive, no temp sibling, no directory.
    #[test]
    fn write_into_a_missing_directory_is_an_io_error() {
        let dir = scratch("missing");
        let missing = dir.join("no-such-dir");
        let result = write_archive(&fitted(8, 128), &missing.join("model.arch"), QuantTier::F64);
        assert!(matches!(result, Err(ArchiveError::Io(_))), "{result:?}");
        assert!(!missing.exists());
        assert_eq!(std::fs::read_dir(&dir).expect("scan").count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn q16_is_much_smaller_than_the_checkpoint_form() {
        let model = fitted(48, 2048);
        let encode = |tier| {
            let mut bytes = Vec::new();
            let info = encode_archive(&model, tier, &mut bytes).expect("encode");
            assert_eq!(info.bytes, bytes.len() as u64);
            bytes
        };
        let (f64_bytes, q16_bytes) = (encode(QuantTier::F64), encode(QuantTier::Q16));
        assert!(
            (q16_bytes.len() as f64) < 0.4 * f64_bytes.len() as f64,
            "q16 {} vs f64 {}",
            q16_bytes.len(),
            f64_bytes.len()
        );
    }
}
