//! `lbsp-store`: durable storage for the privacy-aware LBS engine.
//!
//! The paper's server is a long-running service: users register once and
//! stream location updates for hours (Sec. 7 runs the experiments over
//! sustained workloads). This crate makes that state survive a crash
//! without weakening any privacy property:
//!
//! * [`Wal`] — an append-only, CRC-checksummed, length-prefixed
//!   write-ahead log. Record payloads are the strict
//!   [`lbsp_core::journal`] codecs, so bytes read back from disk are
//!   treated exactly as hostile as network bytes.
//! * **Snapshots** — periodic compacted dumps of the full engine state
//!   ([`lbsp_core::EngineState`]), written atomically (tmp + rename +
//!   fsync) so a crash mid-snapshot can never shadow the log.
//! * [`recover_engine`] / [`open_engine`] — the recovery path: best
//!   snapshot + tail replay rebuilds a [`lbsp_core::ShardedEngine`]
//!   byte-identical to one that never crashed.
//!
//! Failure doctrine: a *torn tail* (the final record of the final
//! segment extends past end-of-file) is the signature of a crash during
//! an append and recovery restores exactly the durable-record prefix.
//! Everything else — a flipped bit in a body or CRC, a mismatched
//! segment header, a gap in the segment chain, an undecodable record —
//! is corruption and fails loudly with a [`StoreError::Corrupt`]
//! diagnostic naming the file and byte offset. Nothing in this crate
//! panics on log bytes and nothing silently drops a record that was
//! durable before the crash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod recover;
mod wal;

pub use recover::{open_engine, recover_engine, OpenedEngine, RecoveredEngine};
pub use wal::{
    crc32, Wal, MAX_RECORD_LEN, RECORD_HEADER_LEN, SEGMENT_HEADER_LEN, SEGMENT_MAGIC,
    SNAPSHOT_MAGIC,
};

use std::fmt;
use std::io;

/// Everything that can go wrong opening or recovering a log directory.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The log bytes are inconsistent: the diagnostic names the file,
    /// the byte offset of the problem, and what was expected.
    Corrupt {
        /// File the inconsistency was found in (display path).
        file: String,
        /// Byte offset of the offending region within that file.
        offset: u64,
        /// Human-readable description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "wal io error: {e}"),
            StoreError::Corrupt {
                file,
                offset,
                detail,
            } => write!(f, "wal corrupt: {file} at byte {offset}: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Shorthand used throughout the crate.
pub type Result<T> = std::result::Result<T, StoreError>;

pub(crate) fn corrupt(
    file: &std::path::Path,
    offset: u64,
    detail: impl Into<String>,
) -> StoreError {
    StoreError::Corrupt {
        file: file.display().to_string(),
        offset,
        detail: detail.into(),
    }
}
