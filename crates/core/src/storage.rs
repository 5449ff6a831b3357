//! Shared persistence substrate for every on-disk format in the crate.
//!
//! Three formats persist state next to each other — JSON checkpoints
//! ([`crate::checkpoint`]), the binary write-ahead log ([`crate::wal`]),
//! and the compressed mode archive ([`crate::archive`]) — and all three
//! share one durability discipline and one decode path, owned here:
//!
//! * [`crc32`] — CRC-32 (IEEE 802.3, reflected), the checksum every
//!   format frames its payloads with;
//! * [`format_text_header`] / [`read_text_header`] — the one-line
//!   `MAGIC v<version> <tokens...>\n` versioned header, read with a
//!   bounded read that decodes only that line as text;
//! * [`atomic_write`] — the one durable write: it hands the caller a
//!   buffered writer on a unique temp sibling, then flushes, fsyncs,
//!   renames and fsyncs the parent directory, so a crash mid-write can
//!   never leave a torn file under the final name. Callers stream into it
//!   (the archive one node block at a time, the WAL rewrite one frame at a
//!   time), so no caller has to assemble the whole file in memory first;
//! * [`write_frame`] / [`BlockReader`] / [`read_block_at`] — the
//!   `[u32 len LE][u32 crc32 LE][payload]` block framing: one frame writer
//!   for every sink ([`encode_frame`] is it applied to a `Vec`), with
//!   sequential intact-prefix scans (WAL recovery) and seekable
//!   single-block reads (archive replay);
//! * [`ByteReader`] — the checked reader every payload decodes through;
//! * [`list_dir`] — the directory walk behind checkpoint and WAL discovery;
//! * [`prune_keep_last`] — keep-last-K retention over a `(sort-key, path)`
//!   file list, which keeps listing every file it could not delete.

use std::io::{BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `u32 len + u32 crc` preceding every framed block payload.
pub const FRAME_HEAD: usize = 8;

/// Upper bound on a single framed payload; anything larger is treated as
/// corruption rather than an allocation request.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 30;

// ---------------------------------------------------------------------------
// Checksum
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected) of `data`, eight bytes per step
/// (slicing-by-8): table `k` advances the register past a byte followed
/// by `k` zero bytes, so one step folds eight input bytes with eight
/// independent lookups. A tail shorter than eight bytes goes bytewise.
/// The values are those of the bytewise table loop.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    });
    let at = |k: usize, x: u32| t[k][(x & 0xFF) as usize];
    let mut crc = 0xFFFF_FFFFu32;
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let x = u64::from_le_bytes(*w);
        let lo = x as u32 ^ crc;
        let hi = (x >> 32) as u32;
        crc = at(7, lo)
            ^ at(6, lo >> 8)
            ^ at(5, lo >> 16)
            ^ at(4, lo >> 24)
            ^ at(3, hi)
            ^ at(2, hi >> 8)
            ^ at(1, hi >> 16)
            ^ at(0, hi >> 24);
    }
    for &b in tail {
        crc = at(0, crc ^ u32::from(b)) ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Atomic writes
// ---------------------------------------------------------------------------

/// Flushes a directory's entry table to stable storage. On POSIX, a
/// rename is only durable once the *directory* is fsynced — fsyncing the
/// file alone leaves the new directory entry in the page cache, so a
/// power loss right after a "successful" save can silently revert it.
/// Checkpoint saves, WAL segment creation/truncation, and archive writes
/// all route through this. Non-Unix platforms have no directory-fsync
/// primitive; there the rename itself is the best available barrier.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        std::fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// A temp-file sibling of `path` that is unique to this call.
///
/// Concurrent writers into one directory must never share a temp path:
/// with a fixed `.tmp` suffix, writer B's `File::create` would truncate
/// writer A's half-written payload and the subsequent renames would race
/// (one fails with `NotFound`, or a torn mix gets promoted). A
/// process-wide counter plus the pid keeps every in-flight write on its
/// own file; readers and directory scans never look at `.tmp` names.
pub fn unique_tmp_path(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}-{seq}.tmp", std::process::id()));
    PathBuf::from(tmp)
}

/// Capacity of the buffered writer [`atomic_write`] hands its caller:
/// large enough that small frame heads and header lines coalesce into few
/// writes, while a payload at least this long goes straight to the file.
const WRITE_BUFFER: usize = 64 * 1024;

/// Writes a file at `path` atomically by streaming: `write` fills a
/// buffered writer on a unique temp sibling, which is then flushed and
/// renamed into place. With `durable` set, the file is fsynced before the
/// rename and the parent directory after it, so a crash can neither tear
/// the file nor revert an acked write. Without it the fsyncs are skipped —
/// the caller has decided the content is already covered by some other
/// durable artefact (e.g. a WAL retention rewrite right after a durable
/// checkpoint). On any failure, including an error `write` returns
/// mid-stream, the temp sibling is removed best-effort and the previous
/// content at `path` is untouched. Returns what `write` returned.
pub fn atomic_write<T>(
    path: &Path,
    durable: bool,
    write: impl FnOnce(&mut BufWriter<std::fs::File>) -> std::io::Result<T>,
) -> std::io::Result<T> {
    let tmp = unique_tmp_path(path);
    let wrote = (|| {
        let mut w = BufWriter::with_capacity(WRITE_BUFFER, std::fs::File::create(&tmp)?);
        let out = write(&mut w)?;
        let f = w.into_inner().map_err(|e| e.into_error())?;
        if durable {
            // Flush to stable storage before the rename makes the file
            // visible under its final name; a crash before this point
            // leaves only the temp file, which readers never look at.
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        if durable {
            // The rename itself lives in the directory's entry table:
            // without this fsync a power loss can revert an acked save.
            // A bare relative filename has `Some("")` as its parent,
            // which opens as ENOENT — that means the current directory.
            match path.parent() {
                Some(parent) if parent.as_os_str().is_empty() => fsync_dir(Path::new("."))?,
                Some(parent) => fsync_dir(parent)?,
                None => {}
            }
        }
        Ok(out)
    })();
    if wrote.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    wrote
}

// ---------------------------------------------------------------------------
// Versioned text headers
// ---------------------------------------------------------------------------

/// Longest header line any format writes, newline included: header reads
/// look no further.
pub const MAX_HEADER_LINE: usize = 128;

/// Why a versioned header line did not read back. Callers map these onto
/// their format-specific error types (and error strings), so existing
/// messages stay stable.
#[derive(Debug)]
pub enum HeaderError {
    /// Reading the header bytes failed.
    Io(std::io::Error),
    /// No newline within the first [`MAX_HEADER_LINE`] bytes.
    NoLine,
    /// The header line is not valid UTF-8.
    NotUtf8,
    /// The line does not start with the expected magic token.
    BadMagic,
    /// The `v<N>` version token is missing or malformed.
    NoVersion,
    /// The version is newer than the caller supports.
    Unsupported(u32),
}

/// A parsed `MAGIC v<version> <tokens...>` header line.
#[derive(Debug)]
pub struct TextHeader {
    /// The format version the file declares.
    pub version: u32,
    /// The format-specific tokens after the version, in order.
    pub rest: Vec<String>,
    /// Byte length of the header line with its newline: where the body
    /// starts.
    pub len: usize,
}

/// Formats the one-line versioned header every format starts with:
/// `MAGIC v<version> <tokens...>\n` (the space before the tokens is
/// omitted when there are none).
pub fn format_text_header(magic: &str, version: u32, rest: &[&str]) -> String {
    let mut line = format!("{magic} v{version}");
    for tok in rest {
        line.push(' ');
        line.push_str(tok);
    }
    line.push('\n');
    line
}

/// Reads the header line at the start of `src` — at most
/// [`MAX_HEADER_LINE`] bytes — and parses it against `magic`, rejecting
/// versions newer than `max_version`. Only the header line is decoded as
/// text; the body is the format's business.
pub fn read_text_header(
    src: &mut impl Read,
    magic: &str,
    max_version: u32,
) -> Result<TextHeader, HeaderError> {
    let mut head = Vec::with_capacity(MAX_HEADER_LINE);
    src.take(MAX_HEADER_LINE as u64)
        .read_to_end(&mut head)
        .map_err(HeaderError::Io)?;
    let line_end = head
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(HeaderError::NoLine)?;
    let line = std::str::from_utf8(&head[..line_end]).map_err(|_| HeaderError::NotUtf8)?;
    let mut parts = line.split(' ');
    if parts.next() != Some(magic) {
        return Err(HeaderError::BadMagic);
    }
    let version: u32 = parts
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse().ok())
        .ok_or(HeaderError::NoVersion)?;
    if version > max_version {
        return Err(HeaderError::Unsupported(version));
    }
    Ok(TextHeader {
        version,
        rest: parts.map(str::to_string).collect(),
        len: line_end + 1,
    })
}

// ---------------------------------------------------------------------------
// Checked decoding
// ---------------------------------------------------------------------------

/// Sequential little-endian reader over stored bytes: the one place the
/// crate turns a payload back into fields. Every read is bounds-checked
/// and yields `None` past the end; a decoder calls
/// [`ByteReader::records`] before allocating room for `count` values, so
/// a damaged count never asks for more memory than the payload holds.
#[derive(Clone, Copy, Debug)]
pub struct ByteReader<'a> {
    rest: &'a [u8],
}

#[deny(clippy::arithmetic_side_effects)]
impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { rest: bytes }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.rest.split_at_checked(n)?;
        self.rest = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk::<N>()?;
        self.rest = rest;
        Some(*head)
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `f64`, stored as its little-endian bit pattern.
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A reader over the next `count` records of `width` bytes each;
    /// `None` when `count × width` overflows or exceeds the bytes left.
    pub fn records(&mut self, count: usize, width: usize) -> Option<ByteReader<'a>> {
        let len = count.checked_mul(width)?;
        self.bytes(len).map(ByteReader::new)
    }

    /// `Some` only when every byte has been read — a decoder's last step,
    /// so a payload longer than its declared shape is rejected too.
    pub fn finish(self) -> Option<()> {
        self.rest.is_empty().then_some(())
    }
}

// ---------------------------------------------------------------------------
// Block framing
// ---------------------------------------------------------------------------

/// Why a framed block could not be read back.
#[derive(Debug)]
pub enum BlockError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The frame head or payload extends past the end of the file.
    Truncated,
    /// The frame head declares a payload larger than [`MAX_FRAME_PAYLOAD`].
    TooLarge(u32),
    /// The payload's CRC-32 does not match the frame head.
    Checksum {
        /// Checksum the frame head promised.
        expected: u32,
        /// Checksum of the payload as read.
        got: u32,
    },
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Io(e) => write!(f, "block io error: {e}"),
            BlockError::Truncated => write!(f, "truncated block frame"),
            BlockError::TooLarge(n) => {
                write!(f, "block payload of {n} bytes exceeds {MAX_FRAME_PAYLOAD}")
            }
            BlockError::Checksum { expected, got } => {
                write!(
                    f,
                    "block checksum mismatch: head {expected:08x}, payload {got:08x}"
                )
            }
        }
    }
}

impl std::error::Error for BlockError {}

impl From<std::io::Error> for BlockError {
    fn from(e: std::io::Error) -> Self {
        BlockError::Io(e)
    }
}

/// Writes one frame, `[u32 len LE][u32 crc32 LE][payload]`, to `w`: the
/// one framing body every format's blocks go through.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)
}

/// One block as a standalone frame byte vector: [`write_frame`] applied
/// to a `Vec`.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEAD + payload.len());
    // Writing into a `Vec` cannot fail.
    #[allow(clippy::expect_used)]
    write_frame(&mut out, payload).expect("a Vec sink is infallible");
    out
}

/// Sequential scanner over a byte image of CRC-framed blocks: yields each
/// intact payload in order and stops for good at the first damaged frame
/// (torn tail, bit rot, or an absurd length). [`BlockReader::pos`] is
/// then the end of the intact prefix, which is where WAL recovery
/// truncates back to.
#[derive(Debug)]
pub struct BlockReader<'a> {
    bytes: &'a [u8],
    rest: ByteReader<'a>,
}

impl<'a> BlockReader<'a> {
    /// A scanner starting at byte offset `start` (past any text header).
    pub fn new(bytes: &'a [u8], start: usize) -> BlockReader<'a> {
        BlockReader {
            bytes,
            rest: ByteReader::new(bytes.get(start..).unwrap_or_default()),
        }
    }

    /// Byte offset of the end of the intact prefix scanned so far.
    pub fn pos(&self) -> usize {
        self.bytes.len() - self.rest.remaining()
    }
}

impl<'a> Iterator for BlockReader<'a> {
    type Item = &'a [u8];

    /// The next intact payload: `None` at the end of the image and at a
    /// damaged frame, which the scan never steps past.
    fn next(&mut self) -> Option<&'a [u8]> {
        let mut frame = self.rest;
        let len = frame.u32()?;
        let crc = frame.u32()?;
        if len > MAX_FRAME_PAYLOAD {
            return None;
        }
        let payload = frame.bytes(len as usize)?;
        if crc32(payload) != crc {
            return None;
        }
        self.rest = frame;
        Some(payload)
    }
}

/// Seeks to `offset` in `src` and reads back one framed block, verifying
/// length and checksum. This is the random-access read path archive
/// replay uses to stream only the blocks a time range admits. Lengths are
/// checked against the bytes the source still holds before anything is
/// read, so a damaged frame head never sizes a buffer past the source.
pub fn read_block_at(src: &mut (impl Read + Seek), offset: u64) -> Result<Vec<u8>, BlockError> {
    let left = src.seek(std::io::SeekFrom::End(0))?.saturating_sub(offset);
    let Some(left) = left.checked_sub(FRAME_HEAD as u64) else {
        return Err(BlockError::Truncated);
    };
    src.seek(std::io::SeekFrom::Start(offset))?;
    let mut head = [0u8; FRAME_HEAD];
    src.read_exact(&mut head)?;
    let [l0, l1, l2, l3, c0, c1, c2, c3] = head;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    let expected = u32::from_le_bytes([c0, c1, c2, c3]);
    if len > MAX_FRAME_PAYLOAD {
        return Err(BlockError::TooLarge(len));
    }
    if u64::from(len) > left {
        return Err(BlockError::Truncated);
    }
    let mut payload = vec![0u8; len as usize];
    src.read_exact(&mut payload)?;
    let got = crc32(&payload);
    if got != expected {
        return Err(BlockError::Checksum { expected, got });
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Directory listing
// ---------------------------------------------------------------------------

/// Every entry of `dir` whose file name `parse` accepts, as
/// `(parsed, path)` in directory order; names that are not UTF-8 are
/// skipped. A missing directory lists as empty: a store that has written
/// nothing yet has no directory.
pub fn list_dir<T>(
    dir: &Path,
    parse: impl Fn(&str) -> Option<T>,
) -> std::io::Result<Vec<(T, PathBuf)>> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut found = Vec::new();
    for entry in entries {
        let path = entry?.path();
        if let Some(t) = path.file_name().and_then(|n| n.to_str()).and_then(&parse) {
            found.push((t, path));
        }
    }
    Ok(found)
}

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

/// Keep-last-K retention over a `(sort-key, path)` list ordered newest
/// first: unlinks every file past the first `keep` and drops it from the
/// list once it is gone (a file already missing counts as gone). A file
/// whose unlink fails stays listed, so a floor taken over the list never
/// passes a file still on disk, and the next pass retries it. `keep == 0`
/// disables deletion. Failures are not errors: retention is best-effort
/// and must never fail the save that triggered it. Returns how many files
/// were deleted.
pub fn prune_keep_last(files: &mut Vec<(u64, PathBuf)>, keep: usize) -> usize {
    if keep == 0 || files.len() <= keep {
        return 0;
    }
    let mut deleted = 0;
    for (key, path) in files.split_off(keep) {
        match std::fs::remove_file(&path) {
            Ok(()) => deleted += 1,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(_) => files.push((key, path)),
        }
    }
    deleted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 reference values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The sliced CRC equals the bytewise table loop at every length
    /// 0..=72 (no, one or several 8-byte steps, with every tail length)
    /// and at every start offset 0..8 into a seeded buffer.
    #[test]
    fn crc32_by_slices_matches_the_bytewise_loop() {
        fn bytewise(data: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in data {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 == 1 {
                        0xEDB8_8320 ^ (crc >> 1)
                    } else {
                        crc >> 1
                    };
                }
            }
            crc ^ 0xFFFF_FFFF
        }
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..80)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=72 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), bytewise(data), "start {start} len {len}");
            }
        }
        assert_eq!(bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn text_header_roundtrips() {
        let line = format_text_header("IMRDMD-X", 3, &["abc", "42"]);
        assert_eq!(line, "IMRDMD-X v3 abc 42\n");
        let file = format!("{line}body");
        let h = read_text_header(&mut file.as_bytes(), "IMRDMD-X", 3).expect("parse");
        assert_eq!(h.version, 3);
        assert_eq!(h.rest, vec!["abc", "42"]);
        assert_eq!(&file[h.len..], "body");
        let read = |bytes: &[u8]| read_text_header(&mut &bytes[..], "IMRDMD-X", 3);
        assert!(matches!(read(b"OTHER v1\n"), Err(HeaderError::BadMagic)));
        assert!(matches!(
            read(b"IMRDMD-X three\n"),
            Err(HeaderError::NoVersion)
        ));
        assert!(matches!(
            read(b"IMRDMD-X v4\n"),
            Err(HeaderError::Unsupported(4))
        ));
        assert!(matches!(read(b"IMRDMD-X v1"), Err(HeaderError::NoLine)));
        assert!(matches!(
            read(&[b'x'; 2 * MAX_HEADER_LINE]),
            Err(HeaderError::NoLine)
        ));
        assert!(matches!(read(b"IMRDMD-X\xff\n"), Err(HeaderError::NotUtf8)));
        // Only the header line is text: a binary body is not inspected.
        assert!(read(b"IMRDMD-X v1\n\xff\xfe").is_ok());
    }

    #[test]
    fn block_writer_offsets_feed_seekable_reads() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"HDR\n");
        let a = buf.len() as u64;
        write_frame(&mut buf, b"first").expect("frame");
        let b = buf.len() as u64;
        write_frame(&mut buf, b"second-block").expect("frame");
        assert_eq!(a, 4);
        assert_eq!(b, 4 + FRAME_HEAD as u64 + 5);
        let mut cur = std::io::Cursor::new(&buf);
        assert_eq!(read_block_at(&mut cur, b).expect("read"), b"second-block");
        assert_eq!(read_block_at(&mut cur, a).expect("read"), b"first");
    }

    #[test]
    fn sequential_scan_stops_at_damage() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").expect("frame");
        write_frame(&mut buf, b"two").expect("frame");
        let intact_len = buf.len();
        write_frame(&mut buf, b"three").expect("frame");
        let at = buf.len() - 2;
        buf[at] ^= 0x10; // bit-flip inside the last payload
        let mut r = BlockReader::new(&buf, 0);
        assert_eq!(r.next(), Some(&b"one"[..]));
        assert_eq!(r.next(), Some(&b"two"[..]));
        assert!(r.next().is_none());
        assert!(r.next().is_none(), "the scan never steps past damage");
        assert_eq!(r.pos(), intact_len);
        assert!(r.pos() < buf.len());
    }

    #[test]
    fn byte_reader_checks_lengths_before_reading() {
        let bytes = [1u8, 0, 2, 0, 0, 0, 0xff];
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u16(), Some(1));
        assert_eq!(r.u32(), Some(2));
        assert_eq!(r.u16(), None, "one byte left");
        assert_eq!(r.remaining(), 1);
        assert!(r.records(usize::MAX, 2).is_none(), "product overflows");
        assert!(r.records(2, 1).is_none(), "more than the bytes left");
        let mut one = r.records(1, 1).expect("exactly the byte left");
        assert_eq!(one.bytes(1), Some(&[0xff][..]));
        assert_eq!(r.finish(), Some(()));
        assert_eq!(ByteReader::new(&bytes).finish(), None);
    }

    /// A frame head promising up to the 1 GiB cap is rejected as truncated
    /// before its payload buffer is allocated.
    #[test]
    fn seekable_read_never_allocates_past_the_source() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAX_FRAME_PAYLOAD.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(b"tiny");
        let mut cur = std::io::Cursor::new(&buf);
        assert!(matches!(
            read_block_at(&mut cur, 0),
            Err(BlockError::Truncated)
        ));
        assert!(matches!(
            read_block_at(&mut cur, u64::MAX - 2),
            Err(BlockError::Truncated)
        ));
    }

    #[test]
    fn corrupt_block_is_a_typed_error_on_seekable_reads() {
        let mut buf = encode_frame(b"payload");
        buf[FRAME_HEAD + 2] ^= 0x01;
        let mut cur = std::io::Cursor::new(&buf);
        assert!(matches!(
            read_block_at(&mut cur, 0),
            Err(BlockError::Checksum { .. })
        ));
        let mut cur = std::io::Cursor::new(&buf[..buf.len() - 3]);
        assert!(matches!(
            read_block_at(&mut cur, 0),
            Err(BlockError::Truncated)
        ));
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("imrdmd-storage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("file.bin");
        atomic_write(&path, true, |w| w.write_all(b"v1")).expect("write");
        atomic_write(&path, false, |w| w.write_all(b"v2")).expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"v2");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("scan")
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "no temp siblings survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A writer that fails after streaming part of the file leaves the
    /// previous content at the target and no temp sibling behind.
    #[test]
    fn atomic_write_failing_mid_stream_keeps_the_old_file() {
        let dir = std::env::temp_dir().join(format!("imrdmd-storage-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("file.bin");
        atomic_write(&path, true, |w| w.write_all(b"old")).expect("write");
        let failed = atomic_write(&path, true, |w| {
            // Past the buffer, so part of it has reached the temp file.
            w.write_all(&vec![7u8; 2 * WRITE_BUFFER])?;
            Err::<(), _>(std::io::Error::other("encoder failed"))
        });
        assert_eq!(
            failed.expect_err("error propagates").to_string(),
            "encoder failed"
        );
        assert_eq!(std::fs::read(&path).expect("read"), b"old");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("scan")
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert_eq!(names, ["file.bin"], "no temp sibling survives");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A bare relative filename (`Some("")` parent) must still write
    /// durably: the directory fsync resolves to the current directory
    /// instead of failing ENOENT after the rename already landed.
    #[test]
    fn atomic_write_accepts_bare_relative_filenames() {
        let dir = std::env::temp_dir().join(format!("imrdmd-storage-bare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let prev = std::env::current_dir().expect("cwd");
        std::env::set_current_dir(&dir).expect("chdir");
        let result = atomic_write(Path::new("bare.bin"), true, |w| w.write_all(b"payload"));
        let content = std::fs::read("bare.bin");
        std::env::set_current_dir(prev).expect("chdir back");
        result.expect("durable write with empty parent");
        assert_eq!(content.expect("read back").as_slice(), b"payload");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_newest_and_lists_survivors() {
        let dir = std::env::temp_dir().join(format!("imrdmd-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let all: Vec<(u64, PathBuf)> = [40u64, 30, 20, 10]
            .iter()
            .map(|s| {
                let p = dir.join(format!("f-{s}"));
                std::fs::write(&p, b"x").expect("write");
                (*s, p)
            })
            .collect();
        let mut files = all.clone();
        assert_eq!(prune_keep_last(&mut files, 2), 2);
        assert_eq!(files, all[..2]);
        assert!(all[0].1.exists() && all[1].1.exists());
        assert!(!all[2].1.exists() && !all[3].1.exists());
        assert_eq!(prune_keep_last(&mut files, 0), 0);
        assert_eq!(files.len(), 2);
        // A file already gone counts as gone; one that cannot be unlinked
        // (here a directory) stays listed.
        std::fs::create_dir(&all[3].1).expect("mkdir entry");
        let mut files = all.clone();
        assert_eq!(prune_keep_last(&mut files, 1), 1);
        assert_eq!(files, [all[0].clone(), all[3].clone()]);
        assert!(all[3].1.is_dir());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
