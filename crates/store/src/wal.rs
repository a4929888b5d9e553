//! The write-ahead log writer: segment framing, atomic snapshots,
//! rotation, pruning.
//!
//! On-disk layout of a log directory:
//!
//! ```text
//! wal-<seq:016x>.log    segment: 28-byte header + records
//! snap-<op:016x>.snap   compacted snapshot covering ops < op
//! snap.tmp              in-flight snapshot (ignored by recovery)
//! ```
//!
//! Segment header (28 bytes): magic `LBSPWAL1`, u64 LE sequence number
//! (must match the filename), u64 LE base op index (the global index of
//! the segment's first record), u32 LE CRC over the first 24 bytes.
//!
//! Record frame: u32 LE payload length, u32 LE CRC-32 (IEEE) of the
//! payload, then the payload — one strict
//! [`lbsp_core::journal::encode_record`] buffer.
//!
//! Snapshot file: magic `LBSPSNP1`, u64 LE op index, u32 LE payload
//! length, u32 LE CRC of the payload, then one
//! [`lbsp_core::journal::encode_engine_state`] buffer. Snapshots are
//! written to `snap.tmp`, fsynced, renamed into place, and the
//! directory fsynced — so a named snapshot is either absent or whole.

use crate::{corrupt, Result, StoreError};
use lbsp_core::journal::{encode_record, JournalRecord};
use lbsp_core::DurabilitySink;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Leading magic of every segment file.
pub const SEGMENT_MAGIC: [u8; 8] = *b"LBSPWAL1";
/// Leading magic of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"LBSPSNP1";
/// Byte length of a segment header.
pub const SEGMENT_HEADER_LEN: usize = 28;
/// Byte length of a record frame header (length + CRC).
pub const RECORD_HEADER_LEN: usize = 8;
/// Upper bound on one record's payload. A longer append is refused (the
/// engine fail-stops); a longer length *field* on disk is corruption.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), bitwise — no lookup
/// table, so the hot path stays free of slice indexing.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            let mask = (c & 1).wrapping_neg();
            c = (c >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !c
}

/// `wal-<seq:016x>.log`
pub(crate) fn segment_name(seq: u64) -> String {
    format!("wal-{seq:016x}.log")
}

/// `snap-<op:016x>.snap`
pub(crate) fn snapshot_name(op_index: u64) -> String {
    format!("snap-{op_index:016x}.snap")
}

/// Strictly parses `<prefix><16 lowercase hex digits><suffix>`.
fn parse_hex_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?;
    let digits = rest.strip_suffix(suffix)?;
    if digits.len() != 16
        || !digits
            .chars()
            .all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c))
    {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

/// A directory entry recovery cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LogFileKind {
    /// `wal-<seq>.log`
    Segment(u64),
    /// `snap-<op>.snap`
    Snapshot(u64),
}

/// Classifies a file name; anything unrecognized (including `snap.tmp`)
/// is ignored by recovery.
pub(crate) fn classify_name(name: &str) -> Option<LogFileKind> {
    if let Some(seq) = parse_hex_name(name, "wal-", ".log") {
        return Some(LogFileKind::Segment(seq));
    }
    if let Some(op) = parse_hex_name(name, "snap-", ".snap") {
        return Some(LogFileKind::Snapshot(op));
    }
    None
}

/// Opens the directory itself and fsyncs it, making renames and file
/// creations durable.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The live WAL writer for one log directory. Owns the current segment;
/// implements [`DurabilitySink`] so a [`lbsp_core::ShardedEngine`], the
/// journal's only writer, journals straight into it.
pub struct Wal {
    dir: PathBuf,
    file: File,
    seg_seq: u64,
    /// Global index of the next record to append (record 0 is the
    /// journal's init record).
    next_index: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("seg_seq", &self.seg_seq)
            .field("next_index", &self.next_index)
            .finish()
    }
}

impl Wal {
    /// Creates segment `seq` with base op index `base` in `dir` (which
    /// must exist) and returns a writer positioned after its header.
    /// The header and the directory entry are fsynced before returning,
    /// so a later crash can tear records but never the header.
    pub fn create_segment(dir: &Path, seq: u64, base: u64) -> Result<Wal> {
        let path = dir.join(segment_name(seq));
        let mut file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
        header.extend_from_slice(&SEGMENT_MAGIC);
        header.extend_from_slice(&seq.to_le_bytes());
        header.extend_from_slice(&base.to_le_bytes());
        header.extend_from_slice(&crc32(&header).to_le_bytes());
        file.write_all(&header)?;
        file.sync_data()?;
        sync_dir(dir)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            file,
            seg_seq: seq,
            next_index: base,
        })
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number of the segment currently being appended to.
    pub fn segment_seq(&self) -> u64 {
        self.seg_seq
    }

    /// Global index the next appended record will get.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Appends one record frame to the current segment (buffered in the
    /// OS; durable after [`Wal::sync`]).
    pub fn append_record(&mut self, rec: &JournalRecord) -> std::io::Result<()> {
        let body = encode_record(rec);
        let len = u32::try_from(body.len())
            .ok()
            .filter(|&l| l <= MAX_RECORD_LEN)
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("record of {} bytes exceeds MAX_RECORD_LEN", body.len()),
                )
            })?;
        let mut frame = Vec::with_capacity(RECORD_HEADER_LEN + body.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        self.file.write_all(&frame)?;
        self.next_index = self.next_index.saturating_add(1);
        Ok(())
    }

    /// Forces every appended record to stable storage.
    pub fn sync_log(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    /// Installs a snapshot covering every record appended so far, then
    /// rotates to a fresh segment and prunes everything the snapshot
    /// supersedes. Write order makes each step crash-safe:
    ///
    /// 1. snapshot → `snap.tmp`, fsync, rename to its final name, fsync
    ///    the directory (a named snapshot is always whole);
    /// 2. create the next segment (header fsynced);
    /// 3. delete older segments and older snapshots.
    ///
    /// A crash between any two steps leaves a state recovery handles:
    /// extra segments chain-validate, extra snapshots lose to the
    /// newest one.
    pub fn install_snapshot(&mut self, state: &[u8]) -> std::io::Result<()> {
        let op_index = self.next_index;
        let len = u32::try_from(state.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "snapshot exceeds u32 length prefix",
            )
        })?;
        // Step 1: atomic snapshot.
        let tmp = self.dir.join("snap.tmp");
        let mut buf = Vec::with_capacity(24 + state.len());
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&op_index.to_le_bytes());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.extend_from_slice(&crc32(state).to_le_bytes());
        buf.extend_from_slice(state);
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            f.write_all(&buf)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, self.dir.join(snapshot_name(op_index)))?;
        sync_dir(&self.dir)?;

        // Step 2: rotate. Make the tail of the outgoing segment durable
        // first so the chain the snapshot supersedes is complete.
        self.file.sync_data()?;
        let next_seq = self.seg_seq.saturating_add(1);
        let fresh = Wal::create_segment(&self.dir, next_seq, op_index).map_err(|e| match e {
            StoreError::Io(io) => io,
            other => std::io::Error::other(other.to_string()),
        })?;
        self.file = fresh.file;
        self.seg_seq = fresh.seg_seq;

        // Step 3: prune superseded files.
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let stale = match classify_name(name) {
                Some(LogFileKind::Segment(seq)) => seq < self.seg_seq,
                Some(LogFileKind::Snapshot(op)) => op < op_index,
                None => false,
            };
            if stale {
                fs::remove_file(entry.path())?;
            }
        }
        sync_dir(&self.dir)?;
        Ok(())
    }
}

impl DurabilitySink for Wal {
    fn append(&mut self, rec: &JournalRecord) -> std::io::Result<()> {
        self.append_record(rec)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.sync_log()
    }

    fn snapshot(&mut self, state: &[u8]) -> std::io::Result<()> {
        self.install_snapshot(state)
    }
}

/// Reads a little-endian u32 at `off`, if in bounds.
pub(crate) fn read_u32(buf: &[u8], off: usize) -> Option<u32> {
    let s = buf.get(off..off.checked_add(4)?)?;
    let arr: [u8; 4] = s.try_into().ok()?;
    Some(u32::from_le_bytes(arr))
}

/// Reads a little-endian u64 at `off`, if in bounds.
pub(crate) fn read_u64(buf: &[u8], off: usize) -> Option<u64> {
    let s = buf.get(off..off.checked_add(8)?)?;
    let arr: [u8; 8] = s.try_into().ok()?;
    Some(u64::from_le_bytes(arr))
}

/// What recovery found in one segment file.
#[derive(Debug)]
pub(crate) struct SegmentContents {
    /// Base op index from the header.
    pub base: u64,
    /// Decoded records, in order; global index of record `i` is
    /// `base + i`.
    pub records: Vec<JournalRecord>,
    /// Byte offset of a torn tail (the durable prefix ends here).
    /// Only ever `Some` when reading the *final* segment.
    pub torn: Option<u64>,
}

/// Reads and validates one segment. `expected_base` chains segments
/// together; `is_last` permits a torn tail (crash-during-append) which
/// is otherwise corruption.
pub(crate) fn read_segment(
    path: &Path,
    name_seq: u64,
    expected_base: Option<u64>,
    is_last: bool,
) -> Result<SegmentContents> {
    let bytes = fs::read(path)?;
    if bytes.len() < SEGMENT_HEADER_LEN {
        // A header shorter than 28 bytes can only be a crash during
        // segment creation (the header is written and fsynced before
        // any record): the segment holds no durable records.
        if is_last {
            let base = expected_base.unwrap_or(0);
            return Ok(SegmentContents {
                base,
                records: Vec::new(),
                torn: Some(bytes.len() as u64),
            });
        }
        return Err(corrupt(
            path,
            bytes.len() as u64,
            format!(
                "segment header truncated to {} bytes in a non-final segment",
                bytes.len()
            ),
        ));
    }
    if bytes.get(..8) != Some(SEGMENT_MAGIC.as_slice()) {
        return Err(corrupt(path, 0, "bad segment magic (expected LBSPWAL1)"));
    }
    let header_crc = read_u32(&bytes, 24).unwrap_or(0);
    let computed = bytes.get(..24).map(crc32).unwrap_or(0);
    if header_crc != computed {
        return Err(corrupt(
            path,
            24,
            format!("segment header CRC mismatch (stored {header_crc:#010x}, computed {computed:#010x})"),
        ));
    }
    let seq = read_u64(&bytes, 8).unwrap_or(0);
    if seq != name_seq {
        return Err(corrupt(
            path,
            8,
            format!("segment header sequence {seq} does not match filename sequence {name_seq}"),
        ));
    }
    let base = read_u64(&bytes, 16).unwrap_or(0);
    if let Some(expected) = expected_base {
        if base != expected {
            return Err(corrupt(
                path,
                16,
                format!("segment base op index {base} breaks the chain (expected {expected})"),
            ));
        }
    }

    let mut records = Vec::new();
    let mut off = SEGMENT_HEADER_LEN;
    let mut torn = None;
    while off < bytes.len() {
        let remaining = bytes.len() - off;
        if remaining < RECORD_HEADER_LEN {
            if is_last {
                torn = Some(off as u64);
                break;
            }
            return Err(corrupt(
                path,
                off as u64,
                format!("{remaining}-byte fragment of a record header in a non-final segment"),
            ));
        }
        let len = read_u32(&bytes, off).unwrap_or(0);
        if len > MAX_RECORD_LEN {
            return Err(corrupt(
                path,
                off as u64,
                format!("record length {len} exceeds MAX_RECORD_LEN ({MAX_RECORD_LEN})"),
            ));
        }
        let body_start = off + RECORD_HEADER_LEN;
        let body_end = body_start + len as usize;
        if body_end > bytes.len() {
            if is_last {
                // The append was torn by the crash: the durable prefix
                // ends at this record's frame start.
                torn = Some(off as u64);
                break;
            }
            return Err(corrupt(
                path,
                off as u64,
                format!(
                    "record of {len} bytes extends past end of a non-final segment ({} available)",
                    bytes.len() - body_start.min(bytes.len())
                ),
            ));
        }
        let stored_crc = read_u32(&bytes, off + 4).unwrap_or(0);
        let Some(body) = bytes.get(body_start..body_end) else {
            return Err(corrupt(path, off as u64, "record body out of bounds"));
        };
        let computed = crc32(body);
        if stored_crc != computed {
            return Err(corrupt(
                path,
                off as u64 + 4,
                format!(
                    "record CRC mismatch at op index {} (stored {stored_crc:#010x}, computed {computed:#010x})",
                    base + records.len() as u64
                ),
            ));
        }
        let Some(rec) = lbsp_core::journal::decode_record(body) else {
            return Err(corrupt(
                path,
                body_start as u64,
                format!(
                    "record at op index {} has a valid CRC but does not decode",
                    base + records.len() as u64
                ),
            ));
        };
        records.push(rec);
        off = body_end;
    }
    Ok(SegmentContents {
        base,
        records,
        torn,
    })
}

/// Reads and validates one snapshot file, returning `(op_index,
/// payload)`. Snapshots are written atomically, so *any* inconsistency
/// here is corruption — there is no torn-snapshot case.
pub(crate) fn read_snapshot(path: &Path, name_op: u64) -> Result<(u64, Vec<u8>)> {
    let bytes = fs::read(path)?;
    if bytes.len() < 24 {
        return Err(corrupt(
            path,
            bytes.len() as u64,
            format!("snapshot truncated to {} bytes (header is 24)", bytes.len()),
        ));
    }
    if bytes.get(..8) != Some(SNAPSHOT_MAGIC.as_slice()) {
        return Err(corrupt(path, 0, "bad snapshot magic (expected LBSPSNP1)"));
    }
    let op_index = read_u64(&bytes, 8).unwrap_or(0);
    if op_index != name_op {
        return Err(corrupt(
            path,
            8,
            format!(
                "snapshot header op index {op_index} does not match filename op index {name_op}"
            ),
        ));
    }
    let len = read_u32(&bytes, 16).unwrap_or(0) as usize;
    let Some(payload) = bytes.get(24..) else {
        return Err(corrupt(path, 24, "snapshot payload out of bounds"));
    };
    if payload.len() != len {
        return Err(corrupt(
            path,
            16,
            format!(
                "snapshot length prefix {len} does not match payload of {} bytes",
                payload.len()
            ),
        ));
    }
    let stored_crc = read_u32(&bytes, 20).unwrap_or(0);
    let computed = crc32(payload);
    if stored_crc != computed {
        return Err(corrupt(
            path,
            20,
            format!("snapshot CRC mismatch (stored {stored_crc:#010x}, computed {computed:#010x})"),
        ));
    }
    Ok((op_index, payload.to_vec()))
}
