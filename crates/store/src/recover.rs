//! Crash recovery: scan a log directory, validate the snapshot and the
//! segment chain, and rebuild the engine by snapshot load + tail
//! replay.
//!
//! Recovery invariants (also documented in `DESIGN.md`):
//!
//! * **Durable prefix, exactly.** The rebuilt engine reflects every
//!   record that was durable at crash time and nothing else. The only
//!   byte pattern recovery repairs silently is a *torn tail* — the last
//!   record of the last segment extending past end-of-file, which is
//!   the unique signature of a crash mid-append.
//! * **Loud otherwise.** Any complete record failing its CRC, any
//!   segment whose header disagrees with its filename, any gap or
//!   overlap in the segment chain, any record the strict codecs refuse:
//!   [`StoreError::Corrupt`] with file + offset + expectation. Never a
//!   panic, never a silently shortened history.
//! * **Byte identity.** Replaying the tail through the same engine
//!   entry points that produced it yields an engine whose every
//!   externally visible byte matches the uncrashed original (see
//!   `ShardedEngine::export_state` for why rebuild order cannot leak).

use crate::wal::{classify_name, read_segment, read_snapshot, LogFileKind, Wal};
use crate::{corrupt, Result};
use lbsp_core::journal::{decode_engine_state, JournalRecord};
use lbsp_core::{Durability, ShardedEngine};
use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};

/// Everything recovery learned from one log directory.
struct LoadedJournal {
    /// Global op index of the first record still on disk.
    first_base: u64,
    /// The contiguous record tail starting at `first_base`.
    records: Vec<JournalRecord>,
    /// Newest snapshot, validated: `(covered op index, payload)`.
    snapshot: Option<(u64, Vec<u8>)>,
    /// Torn tail: `(segment path, byte offset where the tear starts)`.
    torn: Option<(PathBuf, u64)>,
    /// Sequence number of the newest segment, if any exist.
    last_seq: Option<u64>,
    /// Index the next appended record must get.
    next_index: u64,
}

/// Scans and fully validates a log directory. `Ok(None)` means the
/// directory holds no log files at all (fresh start).
fn load_journal(dir: &Path) -> Result<Option<LoadedJournal>> {
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    let mut snapshots: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        match classify_name(name) {
            Some(LogFileKind::Segment(seq)) => segments.push((seq, entry.path())),
            Some(LogFileKind::Snapshot(op)) => snapshots.push((op, entry.path())),
            None => {}
        }
    }
    if segments.is_empty() && snapshots.is_empty() {
        return Ok(None);
    }
    segments.sort_by_key(|&(seq, _)| seq);
    snapshots.sort_by_key(|&(op, _)| op);

    // Only the newest snapshot matters; it must be whole (snapshots are
    // written atomically, so a broken one is corruption, not a crash).
    let snapshot = match snapshots.last() {
        Some((op, path)) => Some(read_snapshot(path, *op)?),
        None => None,
    };

    // Read the segment chain: consecutive sequence numbers, base op
    // indices that chain through each segment's record count, torn
    // tails tolerated only in the final segment.
    let mut records: Vec<JournalRecord> = Vec::new();
    let mut first_base: Option<u64> = None;
    let mut expected_base: Option<u64> = None;
    let mut prev_seq: Option<u64> = None;
    let mut torn: Option<(PathBuf, u64)> = None;
    let total = segments.len();
    for (i, (seq, path)) in segments.iter().enumerate() {
        if let Some(prev) = prev_seq {
            if *seq != prev.wrapping_add(1) {
                return Err(corrupt(
                    path,
                    0,
                    format!("segment sequence jumps from {prev} to {seq} (missing or duplicated segment files)"),
                ));
            }
        }
        prev_seq = Some(*seq);
        let is_last = i + 1 == total;
        let contents = read_segment(path, *seq, expected_base, is_last)?;
        if first_base.is_none() {
            first_base = Some(contents.base);
        }
        expected_base = Some(contents.base + contents.records.len() as u64);
        records.extend(contents.records);
        if let Some(off) = contents.torn {
            torn = Some((path.clone(), off));
        }
    }
    let first_base = first_base
        .or(snapshot.as_ref().map(|&(op, _)| op))
        .unwrap_or(0);
    let tail_end = first_base + records.len() as u64;
    let next_index = snapshot
        .as_ref()
        .map_or(tail_end, |&(op, _)| tail_end.max(op));

    // Coverage: the snapshot plus the on-disk tail must be contiguous.
    match snapshot.as_ref() {
        Some(&(op, _)) => {
            if first_base > op {
                let file = segments
                    .first()
                    .map(|(_, p)| p.clone())
                    .unwrap_or_else(|| dir.to_path_buf());
                return Err(corrupt(
                    &file,
                    0,
                    format!(
                        "journal gap: snapshot covers ops < {op} but the oldest segment starts at op {first_base}"
                    ),
                ));
            }
        }
        None => {
            if first_base != 0 {
                let file = segments
                    .first()
                    .map(|(_, p)| p.clone())
                    .unwrap_or_else(|| dir.to_path_buf());
                return Err(corrupt(
                    &file,
                    0,
                    format!(
                        "journal gap: no snapshot and the oldest segment starts at op {first_base} (genesis is missing)"
                    ),
                ));
            }
        }
    }
    // Genesis discipline: record 0 is the only init record.
    for (i, rec) in records.iter().enumerate() {
        let idx = first_base + i as u64;
        let is_init = matches!(rec, JournalRecord::InitEngine(_));
        if idx == 0 && !is_init {
            let file = segments.first().map(|(_, p)| p.clone()).unwrap_or_default();
            return Err(corrupt(
                &file,
                0,
                "record 0 is not an init record (journal has no genesis)",
            ));
        }
        if idx > 0 && is_init {
            let file = segments.first().map(|(_, p)| p.clone()).unwrap_or_default();
            return Err(corrupt(
                &file,
                0,
                format!("unexpected init record at op index {idx} (init is only legal at index 0)"),
            ));
        }
    }

    Ok(Some(LoadedJournal {
        first_base,
        records,
        snapshot,
        torn,
        last_seq: prev_seq,
        next_index,
    }))
}

/// The result of a read-only engine recovery.
pub struct RecoveredEngine {
    /// The rebuilt engine (no durability attached — see
    /// [`open_engine`] for the resume-and-keep-logging path).
    pub engine: ShardedEngine,
    /// Registered-user count after recovery (cheap sanity signal).
    pub users: usize,
    /// Ops replayed from the log tail (snapshot-covered ops excluded).
    pub ops_replayed: u64,
    /// Op index the next logged mutation would get.
    pub next_op_index: u64,
    /// Coverage point of the snapshot recovery started from, if any.
    pub snapshot_op_index: Option<u64>,
    /// Torn tail detected (and ignored): segment path + byte offset.
    pub torn: Option<(PathBuf, u64)>,
}

/// Rebuilds a [`ShardedEngine`] from the log in `dir` **without
/// touching the directory**: no truncation, no new segment, no sink.
/// Safe to call any number of times; use [`open_engine`] to resume
/// logging.
pub fn recover_engine(dir: &Path) -> Result<RecoveredEngine> {
    let Some(journal) = load_journal(dir)? else {
        return Err(corrupt(
            dir,
            0,
            "no wal segments or snapshots found (nothing to recover)",
        ));
    };
    let (engine, ops_replayed) = rebuild_engine(dir, &journal)?;
    Ok(RecoveredEngine {
        users: engine.registered(),
        engine,
        ops_replayed,
        next_op_index: journal.next_index,
        snapshot_op_index: journal.snapshot.as_ref().map(|&(op, _)| op),
        torn: journal.torn,
    })
}

/// Snapshot load + tail replay, shared by [`recover_engine`] and
/// [`open_engine`].
fn rebuild_engine(dir: &Path, journal: &LoadedJournal) -> Result<(ShardedEngine, u64)> {
    let (mut engine, replay_from) = match journal.snapshot.as_ref() {
        Some(&(op, ref payload)) => {
            let Some(state) = decode_engine_state(payload) else {
                return Err(corrupt(
                    &dir.join(crate::wal::snapshot_name(op)),
                    24,
                    "snapshot payload has a valid CRC but does not decode as an engine state \
                     (version mismatch or truncated encoder?)",
                ));
            };
            (ShardedEngine::from_state(&state), op)
        }
        None => {
            // Genesis: record 0 carries the engine configuration.
            match journal.records.first() {
                Some(JournalRecord::InitEngine(cfg)) => (ShardedEngine::new(*cfg, 1), 1),
                _ => {
                    return Err(corrupt(dir, 0, "journal has no genesis record"));
                }
            }
        }
    };
    let mut ops_replayed = 0u64;
    for (i, rec) in journal.records.iter().enumerate() {
        let idx = journal.first_base + i as u64;
        if idx < replay_from {
            continue;
        }
        match rec {
            JournalRecord::Op(op) => {
                engine.apply_op(op);
                ops_replayed += 1;
            }
            // Index-0 init is skipped by replay_from >= 1; load_journal
            // already rejected inits anywhere else.
            JournalRecord::InitEngine(_) => {}
        }
    }
    Ok((engine, ops_replayed))
}

/// The result of [`open_engine`]: a live, durable engine.
pub struct OpenedEngine {
    /// The engine, journaling into `dir` from now on.
    pub engine: ShardedEngine,
    /// `false` for a freshly initialized directory, `true` when state
    /// was recovered from an existing log.
    pub recovered: bool,
    /// Registered-user count after opening.
    pub users: usize,
    /// Ops replayed during recovery (0 for a fresh directory).
    pub ops_replayed: u64,
}

/// Opens (or creates) a durable engine on `dir`.
///
/// * Fresh directory: writes the genesis [`JournalRecord::InitEngine`]
///   for `cfg` and starts logging.
/// * Existing log: recovers (the **persisted** configuration wins over
///   `cfg` — in particular the pseudonym secret, which must survive or
///   every server-side key changes identity), truncates a torn tail,
///   rotates to a fresh segment, and resumes logging.
///
/// The engine runs on its caller's thread, so `_threads` is ignored
/// (see [`ShardedEngine::new`]).
pub fn open_engine(
    dir: &Path,
    cfg: lbsp_core::EngineConfig,
    _threads: usize,
    policy: Durability,
) -> Result<OpenedEngine> {
    fs::create_dir_all(dir)?;
    let Some(journal) = load_journal(dir)? else {
        let mut wal = Wal::create_segment(dir, 0, 0)?;
        wal.append_record(&JournalRecord::InitEngine(cfg))?;
        wal.sync_log()?;
        let mut engine = ShardedEngine::new(cfg, 1);
        engine.attach_durability(policy, Box::new(wal));
        return Ok(OpenedEngine {
            users: engine.registered(),
            engine,
            recovered: false,
            ops_replayed: 0,
        });
    };
    let (mut engine, ops_replayed) = rebuild_engine(dir, &journal)?;
    let wal = resume_wal(dir, &journal)?;
    engine.attach_durability(policy, Box::new(wal));
    Ok(OpenedEngine {
        users: engine.registered(),
        engine,
        recovered: true,
        ops_replayed,
    })
}

/// Truncates a torn tail (making the durable prefix the whole file) and
/// rotates to a fresh segment for new appends.
fn resume_wal(dir: &Path, journal: &LoadedJournal) -> Result<Wal> {
    if let Some((path, offset)) = &journal.torn {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(*offset)?;
        f.sync_data()?;
    }
    let next_seq = journal.last_seq.map_or(0, |s| s.wrapping_add(1));
    Wal::create_segment(dir, next_seq, journal.next_index)
}
