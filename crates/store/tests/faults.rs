//! Fault-injection corpus for the WAL + snapshot recovery path.
//!
//! Every test here injects a concrete byte-level fault into a real log
//! directory and asserts the failure doctrine: a torn tail (the unique
//! signature of a crash mid-append) recovers exactly the durable-record
//! prefix; every other inconsistency fails loudly with a diagnostic
//! naming the file. No fault may panic, and no fault may silently drop
//! a record that was durable before the crash.

use lbsp_anonymizer::{CloakRequirement, PrivacyProfile};
use lbsp_core::journal::{self, JournalRecord};
use lbsp_core::{Durability, EngineConfig, ShardedEngine, UserId};
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_server::PublicObject;
use lbsp_store::{
    crc32, open_engine, recover_engine, StoreError, Wal, RECORD_HEADER_LEN, SEGMENT_HEADER_LEN,
};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

mod common;
use common::TempDir;

// ---------------------------------------------------------------------
// Harness: deterministic workloads and byte-level log surgery (the
// TempDir drop-guard lives in tests/common).
// ---------------------------------------------------------------------

fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

fn profile() -> PrivacyProfile {
    PrivacyProfile::uniform(CloakRequirement::k_only(4)).expect("valid profile")
}

fn updates(n: u64, salt: u64) -> Vec<(UserId, Point, SimTime)> {
    (0..n)
        .map(|i| {
            let x = (((i + salt) as f64 * 0.618_033_988_749) % 1.0).min(0.999);
            let y = (((i + 2 * salt) as f64 * 0.414_213_562_373) % 1.0).min(0.999);
            (i % 24, Point::new(x, y), SimTime::from_secs(salt as f64))
        })
        .collect()
}

/// The standard mixed workload: registrations, public data, two update
/// waves, standing queries, a drain. The final mutation is a small
/// `AddStandingCount` record so the truncation sweep stays cheap.
fn drive(engine: &mut ShardedEngine) {
    for i in 0..24u64 {
        engine.register(i, profile());
    }
    let objects: Vec<PublicObject> = (0..16)
        .map(|i| PublicObject::new(i, Point::new(((i as f64) * 0.06).min(0.999), 0.4), 0))
        .collect();
    engine.load_public(objects);
    engine.process_updates(&updates(48, 1));
    engine.add_standing_range(3, 0.2);
    engine.process_updates(&updates(48, 7));
    engine.take_standing_changes();
    engine.add_standing_count(Rect::new_unchecked(0.1, 0.1, 0.9, 0.9));
}

/// Builds a durable log under `dir` by driving the standard workload,
/// and returns the canonical encoded state of the engine that wrote it.
fn build_log(dir: &Path, snapshot_every: u64) -> bytes::Bytes {
    let policy = Durability {
        snapshot_every,
        fsync: true,
    };
    let mut opened =
        open_engine(dir, EngineConfig::new(world()), 1, policy).expect("open fresh log");
    assert!(!opened.recovered);
    drive(&mut opened.engine);
    journal::encode_engine_state(&opened.engine.export_state())
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).expect("create copy dir");
    for entry in fs::read_dir(src).expect("read src dir") {
        let entry = entry.expect("dir entry");
        fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy log file");
    }
}

fn list_sorted(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read log dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(suffix))
        })
        .collect();
    out.sort();
    out
}

fn segments(dir: &Path) -> Vec<PathBuf> {
    list_sorted(dir, ".log")
}

fn snapshots(dir: &Path) -> Vec<PathBuf> {
    list_sorted(dir, ".snap")
}

/// Byte offsets where each record in a segment starts, plus the end of
/// the final record (== file length for an untorn segment).
fn record_offsets(path: &Path) -> Vec<u64> {
    let bytes = fs::read(path).expect("read segment");
    let mut offsets = Vec::new();
    let mut at = SEGMENT_HEADER_LEN;
    while at < bytes.len() {
        offsets.push(at as u64);
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("len field"));
        at += RECORD_HEADER_LEN + len as usize;
    }
    assert_eq!(at, bytes.len(), "segment ends on a record boundary");
    offsets.push(at as u64);
    offsets
}

fn flip_bit(path: &Path, offset: u64) {
    let mut bytes = fs::read(path).expect("read file for bit flip");
    bytes[offset as usize] ^= 0x40;
    fs::write(path, bytes).expect("write flipped file");
}

fn truncate(path: &Path, len: u64) {
    let f = fs::OpenOptions::new()
        .write(true)
        .open(path)
        .expect("open for truncate");
    f.set_len(len).expect("truncate");
}

fn recovered_bytes(dir: &Path) -> bytes::Bytes {
    let rec = recover_engine(dir).expect("recovery succeeds");
    journal::encode_engine_state(&rec.engine.export_state())
}

fn expect_corrupt(dir: &Path, what: &str) {
    match recover_engine(dir) {
        Ok(_) => panic!("{what}: recovery should have failed loudly"),
        Err(StoreError::Corrupt { file, detail, .. }) => {
            assert!(!file.is_empty(), "{what}: diagnostic names a file");
            assert!(!detail.is_empty(), "{what}: diagnostic explains the fault");
        }
        Err(StoreError::Io(e)) => panic!("{what}: expected Corrupt, got io error {e}"),
    }
}

// ---------------------------------------------------------------------
// Baseline: untouched logs recover byte-identically.
// ---------------------------------------------------------------------

#[test]
fn clean_log_recovers_byte_identical() {
    for snapshot_every in [u64::MAX, 16] {
        let dir = TempDir::new("clean");
        let live = build_log(dir.path(), snapshot_every);
        let rec = recover_engine(dir.path()).expect("recovery succeeds");
        assert!(rec.torn.is_none());
        assert_eq!(rec.users, 24);
        assert_eq!(
            journal::encode_engine_state(&rec.engine.export_state()),
            live,
            "snapshot_every={snapshot_every}"
        );
        if snapshot_every == 16 {
            assert!(
                !snapshots(dir.path()).is_empty(),
                "cadence 16 must have produced a snapshot"
            );
        }
    }
}

#[test]
fn reopen_resumes_logging_and_stays_byte_identical() {
    // Shadow: one uninterrupted engine, no durability.
    let mut shadow = ShardedEngine::new(EngineConfig::new(world()), 1);
    drive(&mut shadow);
    shadow.process_updates(&updates(48, 13));
    shadow.add_standing_count(Rect::new_unchecked(0.3, 0.3, 0.7, 0.7));

    // Durable twin: same ops split across a close + reopen.
    let dir = TempDir::new("reopen");
    let policy = Durability {
        snapshot_every: u64::MAX,
        fsync: true,
    };
    build_log(dir.path(), u64::MAX);
    let mut opened = open_engine(dir.path(), EngineConfig::new(world()), 1, policy)
        .expect("reopen existing log");
    assert!(opened.recovered);
    assert!(opened.ops_replayed > 0);
    opened.engine.process_updates(&updates(48, 13));
    opened
        .engine
        .add_standing_count(Rect::new_unchecked(0.3, 0.3, 0.7, 0.7));
    assert_eq!(
        journal::encode_engine_state(&opened.engine.export_state()),
        journal::encode_engine_state(&shadow.export_state())
    );
    drop(opened);

    // The reopen rotated to a second segment; recovery reads the chain.
    assert!(segments(dir.path()).len() >= 2);
    assert_eq!(
        recovered_bytes(dir.path()),
        journal::encode_engine_state(&shadow.export_state())
    );
}

#[test]
fn a_log_holding_non_finite_rows_reopens() {
    // The network refuses such rows, but an in-process caller may hand
    // the engine any f64, and whatever it journals must replay.
    let odd = |salt: f64| {
        vec![
            (1, Point::new(f64::NAN, 0.5), SimTime::from_secs(salt)),
            (
                2,
                Point::new(0.5, f64::INFINITY),
                SimTime::from_secs(f64::NAN),
            ),
            (
                3,
                Point::new(f64::NEG_INFINITY, 0.25),
                SimTime::from_secs(f64::INFINITY),
            ),
        ]
    };
    for snapshot_every in [u64::MAX, 2] {
        let dir = TempDir::new("non-finite");
        let policy = Durability {
            snapshot_every,
            fsync: true,
        };
        let mut opened =
            open_engine(dir.path(), EngineConfig::new(world()), 1, policy).expect("open fresh log");
        drive(&mut opened.engine);
        opened.engine.process_updates(&odd(1.0));
        opened.engine.apply_mirror(&odd(2.0), &[]);
        let live = journal::encode_engine_state(&opened.engine.export_state());
        drop(opened);
        assert_eq!(
            recovered_bytes(dir.path()),
            live,
            "snapshot_every={snapshot_every}"
        );
        let reopened = open_engine(dir.path(), EngineConfig::new(world()), 1, policy)
            .expect("reopen a log holding non-finite rows");
        assert!(reopened.recovered);
    }
}

// ---------------------------------------------------------------------
// Torn tails: truncate at every byte offset of the final record.
// ---------------------------------------------------------------------

#[test]
fn truncation_at_every_byte_of_the_final_record_recovers_the_durable_prefix() {
    let dir = TempDir::new("torn");
    let full_state = build_log(dir.path(), u64::MAX);
    let segs = segments(dir.path());
    assert_eq!(segs.len(), 1, "no snapshots => single segment");
    let seg = segs.last().expect("segment exists");
    let offsets = record_offsets(seg);
    let end = *offsets.last().expect("end offset");
    let last_start = offsets[offsets.len() - 2];

    // The reference recovery for every torn shape: the log cut cleanly
    // at the final record boundary (the durable prefix).
    let clean = TempDir::new("torn-clean");
    copy_dir(dir.path(), clean.path());
    truncate(
        &clean.path().join(seg.file_name().expect("name")),
        last_start,
    );
    let prefix_state = recovered_bytes(clean.path());
    assert_ne!(prefix_state, full_state, "final record must matter");

    for cut in last_start..end {
        let copy = TempDir::new("torn-cut");
        copy_dir(dir.path(), copy.path());
        let seg_copy = copy.path().join(seg.file_name().expect("name"));
        truncate(&seg_copy, cut);
        let rec = recover_engine(copy.path())
            .unwrap_or_else(|e| panic!("cut at byte {cut} must recover, got: {e}"));
        if cut == last_start {
            assert!(rec.torn.is_none(), "clean boundary is not torn");
        } else {
            let (file, at) = rec.torn.clone().expect("mid-record cut reports the tear");
            assert_eq!(file, seg_copy);
            assert_eq!(at, last_start, "tear starts where the durable prefix ends");
        }
        assert_eq!(
            journal::encode_engine_state(&rec.engine.export_state()),
            prefix_state,
            "cut at byte {cut} must restore exactly the durable prefix"
        );
    }

    // Untouched log still recovers the full state.
    assert_eq!(recovered_bytes(dir.path()), full_state);
}

#[test]
fn reopening_a_torn_log_truncates_the_tear_and_resumes() {
    let dir = TempDir::new("torn-reopen");
    build_log(dir.path(), u64::MAX);
    let segs = segments(dir.path());
    let seg = segs.last().expect("segment exists");
    let offsets = record_offsets(seg);
    let last_start = offsets[offsets.len() - 2];
    truncate(seg, last_start + 5);

    let prefix_state = {
        let rec = recover_engine(dir.path()).expect("torn log recovers");
        assert!(rec.torn.is_some());
        journal::encode_engine_state(&rec.engine.export_state())
    };

    let policy = Durability {
        snapshot_every: u64::MAX,
        fsync: true,
    };
    let opened = open_engine(dir.path(), EngineConfig::new(world()), 1, policy)
        .expect("open truncates the tear");
    assert!(opened.recovered);
    assert_eq!(
        journal::encode_engine_state(&opened.engine.export_state()),
        prefix_state
    );
    drop(opened);

    // After the repair, recovery no longer sees a tear.
    let rec = recover_engine(dir.path()).expect("repaired log recovers");
    assert!(rec.torn.is_none());
    assert_eq!(
        journal::encode_engine_state(&rec.engine.export_state()),
        prefix_state
    );
}

// ---------------------------------------------------------------------
// Bit flips: bodies, CRCs, and headers all fail loudly.
// ---------------------------------------------------------------------

#[test]
fn bit_flips_in_record_bodies_and_crcs_fail_loudly() {
    let dir = TempDir::new("flip");
    build_log(dir.path(), u64::MAX);
    let segs = segments(dir.path());
    let seg = segs.last().expect("segment exists");
    let offsets = record_offsets(seg);
    let record_count = offsets.len() - 1;

    // First, middle, and final record: flip the CRC field, the first
    // body byte, and the last body byte.
    for rec_idx in [0, record_count / 2, record_count - 1] {
        let start = offsets[rec_idx];
        let rec_end = offsets[rec_idx + 1];
        let crc_byte = start + 4;
        let body_first = start + RECORD_HEADER_LEN as u64;
        let body_last = rec_end - 1;
        for flip_at in [crc_byte, body_first, body_last] {
            let copy = TempDir::new("flip-case");
            copy_dir(dir.path(), copy.path());
            flip_bit(&copy.path().join(seg.file_name().expect("name")), flip_at);
            expect_corrupt(
                copy.path(),
                &format!("bit flip in record {rec_idx} at byte {flip_at}"),
            );
        }
    }
}

#[test]
fn bit_flips_in_the_segment_header_fail_loudly() {
    let dir = TempDir::new("flip-header");
    build_log(dir.path(), u64::MAX);
    let segs = segments(dir.path());
    let seg = segs.last().expect("segment exists");
    // Magic, sequence number, base op index, header CRC.
    for flip_at in [0u64, 8, 16, 24] {
        let copy = TempDir::new("flip-header-case");
        copy_dir(dir.path(), copy.path());
        flip_bit(&copy.path().join(seg.file_name().expect("name")), flip_at);
        expect_corrupt(
            copy.path(),
            &format!("segment header flip at byte {flip_at}"),
        );
    }
}

#[test]
fn snapshot_corruption_fails_loudly() {
    let dir = TempDir::new("snap");
    let live = build_log(dir.path(), 16);
    let snaps = snapshots(dir.path());
    let snap = snaps.last().expect("cadence 16 produced a snapshot");

    // Intact snapshot + tail replay matches the live engine first.
    assert_eq!(recovered_bytes(dir.path()), live);

    // A flipped payload byte, a flipped CRC, and a truncated snapshot
    // all fail loudly: snapshots are written atomically, so a damaged
    // one is corruption, never a crash artifact.
    let snap_len = fs::metadata(snap).expect("snap metadata").len();
    for flip_at in [snap_len - 1, 12] {
        let copy = TempDir::new("snap-flip");
        copy_dir(dir.path(), copy.path());
        flip_bit(&copy.path().join(snap.file_name().expect("name")), flip_at);
        expect_corrupt(copy.path(), &format!("snapshot flip at byte {flip_at}"));
    }
    let copy = TempDir::new("snap-trunc");
    copy_dir(dir.path(), copy.path());
    truncate(
        &copy.path().join(snap.file_name().expect("name")),
        snap_len / 2,
    );
    expect_corrupt(copy.path(), "truncated snapshot");
}

// ---------------------------------------------------------------------
// Segment-chain faults: gaps, duplicates, reordered files.
// ---------------------------------------------------------------------

/// Builds a three-segment log (two reopens, no snapshots) and returns
/// its canonical recovered state.
fn build_chain(dir: &Path) -> bytes::Bytes {
    let policy = Durability {
        snapshot_every: u64::MAX,
        fsync: true,
    };
    build_log(dir, u64::MAX);
    for salt in [21u64, 22] {
        let mut opened = open_engine(dir, EngineConfig::new(world()), 1, policy)
            .expect("reopen to extend the chain");
        opened.engine.process_updates(&updates(32, salt));
    }
    assert_eq!(segments(dir).len(), 3, "two reopens => three segments");
    recovered_bytes(dir)
}

#[test]
fn missing_middle_segment_fails_loudly() {
    let dir = TempDir::new("chain-gap");
    build_chain(dir.path());
    let segs = segments(dir.path());
    fs::remove_file(&segs[1]).expect("drop middle segment");
    expect_corrupt(dir.path(), "missing middle segment");
}

#[test]
fn missing_genesis_segment_fails_loudly() {
    let dir = TempDir::new("chain-genesis");
    build_chain(dir.path());
    let segs = segments(dir.path());
    fs::remove_file(&segs[0]).expect("drop first segment");
    expect_corrupt(dir.path(), "missing genesis segment");
}

#[test]
fn duplicated_segment_under_a_new_name_fails_loudly() {
    let dir = TempDir::new("chain-dup");
    build_chain(dir.path());
    let segs = segments(dir.path());
    // An out-of-sequence duplicate (stale backup, botched copy): the
    // chain 0,1,2,7 has a hole and must be rejected.
    fs::copy(&segs[1], dir.path().join("wal-0000000000000007.log")).expect("plant duplicate");
    expect_corrupt(dir.path(), "duplicated segment under a gap name");
}

#[test]
fn swapped_segment_contents_fail_loudly() {
    let dir = TempDir::new("chain-swap");
    build_chain(dir.path());
    let segs = segments(dir.path());
    // Swap the bytes of segments 0 and 1: each header now disagrees
    // with its filename.
    let a = fs::read(&segs[0]).expect("read seg 0");
    let b = fs::read(&segs[1]).expect("read seg 1");
    fs::write(&segs[0], b).expect("write swapped");
    fs::write(&segs[1], a).expect("write swapped");
    expect_corrupt(dir.path(), "swapped segment contents");
}

#[test]
fn consecutive_duplicate_of_the_tail_segment_fails_loudly() {
    let dir = TempDir::new("chain-tail-dup");
    build_chain(dir.path());
    let segs = segments(dir.path());
    // Copy the tail segment to the next sequence number: consecutive
    // seqs, but the embedded header and base chain expose the fraud.
    fs::copy(&segs[2], dir.path().join("wal-0000000000000003.log")).expect("plant duplicate");
    expect_corrupt(dir.path(), "tail segment duplicated as next seq");
}

// ---------------------------------------------------------------------
// Genesis configs and layouts this build cannot load.
// ---------------------------------------------------------------------

/// Length of the encoded config up to and including its `refine` flag:
/// the world (four f64), `grid_side` (u32), the flag (u8). Logs written
/// while the private store was striped carried a u32 stripe count here.
const CONFIG_UP_TO_REFINE: usize = 4 * 8 + 4 + 1;

/// `bytes` with the striped layout's stripe count (4) spliced in after
/// the config that starts at `config_at`.
fn with_stripe_count(bytes: &[u8], config_at: usize) -> Vec<u8> {
    let at = config_at + CONFIG_UP_TO_REFINE;
    let mut out = bytes[..at].to_vec();
    out.extend_from_slice(&4u32.to_le_bytes());
    out.extend_from_slice(&bytes[at..]);
    out
}

#[test]
fn a_genesis_config_no_engine_can_be_built_from_fails_loudly() {
    let ok = EngineConfig::new(world());
    let bad = [
        (
            "zero-width world",
            EngineConfig {
                world: Rect::new_unchecked(0.5, 0.0, 0.5, 1.0),
                ..ok
            },
        ),
        (
            "zero-height world",
            EngineConfig {
                world: Rect::new_unchecked(0.0, 0.5, 1.0, 0.5),
                ..ok
            },
        ),
        ("grid side 0", EngineConfig { grid_side: 0, ..ok }),
        (
            "grid side 4097",
            EngineConfig {
                grid_side: 4097,
                ..ok
            },
        ),
        (
            "grid side u32::MAX",
            EngineConfig {
                grid_side: u32::MAX,
                ..ok
            },
        ),
    ];
    for (what, cfg) in bad {
        let dir = TempDir::new("bad-config");
        let mut wal = Wal::create_segment(dir.path(), 0, 0).expect("create segment");
        wal.append_record(&JournalRecord::InitEngine(cfg))
            .expect("append genesis");
        wal.sync_log().expect("sync genesis");
        drop(wal);
        expect_corrupt(dir.path(), what);
        // Opening recovers the persisted config, so it refuses it too.
        let opened = open_engine(dir.path(), ok, 1, Durability::default());
        assert!(
            matches!(opened, Err(StoreError::Corrupt { .. })),
            "{what}: open_engine must fail loudly"
        );
    }
}

#[test]
fn a_log_in_the_striped_layout_fails_loudly_naming_the_segment() {
    let dir = TempDir::new("striped-genesis");
    // The genesis record as the striped layout wrote it: tag byte, then
    // the config with its stripe count, framed with a valid CRC.
    let body = journal::encode_record(&JournalRecord::InitEngine(EngineConfig::new(world())));
    let body = with_stripe_count(&body, 1);
    drop(Wal::create_segment(dir.path(), 0, 0).expect("create segment"));
    let seg = segments(dir.path()).pop().expect("segment exists");
    let mut frame = u32::try_from(body.len())
        .expect("short body")
        .to_le_bytes()
        .to_vec();
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    fs::OpenOptions::new()
        .append(true)
        .open(&seg)
        .expect("open segment")
        .write_all(&frame)
        .expect("append genesis");
    let name = seg.file_name().and_then(|n| n.to_str()).expect("name");
    match recover_engine(dir.path()) {
        Ok(_) => panic!("a striped-layout genesis must not recover"),
        Err(StoreError::Corrupt { file, detail, .. }) => {
            assert!(file.ends_with(name), "names the segment, got {file}");
            assert!(detail.contains("does not decode"), "got: {detail}");
        }
        Err(StoreError::Io(e)) => panic!("expected Corrupt, got io error {e}"),
    }
}

#[test]
fn a_system_journal_genesis_fails_to_open() {
    // The genesis the retired in-memory system's journal began with, tag 0xE1
    // and no payload, framed with a valid CRC. No writer produces it
    // now, and its tag is retired: the log must be refused, not read.
    let dir = TempDir::new("system-genesis");
    drop(Wal::create_segment(dir.path(), 0, 0).expect("create segment"));
    let seg = segments(dir.path()).pop().expect("segment exists");
    let body = [0xE1u8];
    let mut frame = 1u32.to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    fs::OpenOptions::new()
        .append(true)
        .open(&seg)
        .expect("open segment")
        .write_all(&frame)
        .expect("append genesis");
    expect_corrupt(dir.path(), "system genesis");
    let opened = open_engine(
        dir.path(),
        EngineConfig::new(world()),
        1,
        Durability::default(),
    );
    assert!(
        matches!(opened, Err(StoreError::Corrupt { .. })),
        "open_engine must refuse a system genesis"
    );
}

#[test]
fn a_log_holding_a_handoff_record_fails_to_open() {
    // A user handed out to another node (0x0B: the user's id) and handed
    // in from one (0x10: id, Fig. 2's profile, no cloak, no standing
    // ranges), framed with valid CRCs behind a clean log. No writer
    // produces them now — a user has one owner for life — and both tags
    // are retired: the log must be refused, not read around.
    let handed_in = [
        &7u64.to_le_bytes()[..],
        &journal::encode_record(&JournalRecord::Op(lbsp_core::EngineOp::RegisterUser {
            id: 7,
            profile: PrivacyProfile::paper_example(),
        }))[9..],
        &[0],
        &0u32.to_le_bytes(),
    ]
    .concat();
    for (tag, payload) in [(0x0Bu8, 7u64.to_le_bytes().to_vec()), (0x10, handed_in)] {
        let dir = TempDir::new("handoff-record");
        build_log(dir.path(), u64::MAX);
        let seg = segments(dir.path()).pop().expect("segment exists");
        let body = [&[tag][..], &payload].concat();
        let mut frame = u32::try_from(body.len()).unwrap().to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        fs::OpenOptions::new()
            .append(true)
            .open(&seg)
            .expect("open segment")
            .write_all(&frame)
            .expect("append handoff record");
        expect_corrupt(dir.path(), &format!("tag 0x{tag:02X}"));
        let opened = open_engine(
            dir.path(),
            EngineConfig::new(world()),
            1,
            Durability::default(),
        );
        assert!(
            matches!(opened, Err(StoreError::Corrupt { .. })),
            "open_engine must refuse tag 0x{tag:02X}"
        );
    }
}

#[test]
fn a_version_one_snapshot_fails_loudly() {
    let dir = TempDir::new("snap-v1");
    let live = build_log(dir.path(), 16);
    let snaps = snapshots(dir.path());
    let snap = snaps.last().expect("cadence 16 produced a snapshot");
    let bytes = fs::read(snap).expect("read snapshot");
    // Magic, op index, payload length, payload CRC, then the payload.
    let (header, payload) = bytes.split_at(24);
    let rewrite = |payload: &[u8]| {
        let mut out = header[..16].to_vec();
        out.extend_from_slice(&u32::try_from(payload.len()).expect("fits").to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        fs::write(snap, out).expect("rewrite snapshot");
    };
    // The rewrite itself is faithful: the same payload still recovers.
    rewrite(payload);
    assert_eq!(recovered_bytes(dir.path()), live);
    // Version byte 1 and the config's stripe count, as version 1 wrote it.
    let mut v1 = with_stripe_count(payload, 1);
    v1[0] = 1;
    rewrite(&v1);
    expect_corrupt(dir.path(), "version-1 snapshot");
}

// ---------------------------------------------------------------------
// Robustness odds and ends.
// ---------------------------------------------------------------------

#[test]
fn unknown_files_in_the_log_directory_are_ignored() {
    let dir = TempDir::new("stray");
    let live = build_log(dir.path(), 16);
    // A crash between snapshot write and rename leaves snap.tmp behind;
    // humans leave notes. Neither may disturb recovery.
    fs::write(dir.path().join("snap.tmp"), b"half-written snapshot").expect("stray tmp");
    fs::write(dir.path().join("README.txt"), b"do not delete").expect("stray note");
    assert_eq!(recovered_bytes(dir.path()), live);
}

#[test]
fn empty_directory_fails_loudly_instead_of_inventing_state() {
    let dir = TempDir::new("empty");
    match recover_engine(dir.path()) {
        Ok(_) => panic!("empty dir must not recover"),
        Err(StoreError::Corrupt { detail, .. }) => {
            assert!(detail.contains("nothing to recover"), "got: {detail}");
        }
        Err(StoreError::Io(e)) => panic!("expected Corrupt, got io error {e}"),
    }
}

#[test]
fn error_display_names_file_and_offset() {
    let dir = TempDir::new("display");
    build_log(dir.path(), u64::MAX);
    let segs = segments(dir.path());
    let seg = segs.last().expect("segment exists");
    flip_bit(seg, 0);
    let err = match recover_engine(dir.path()) {
        Ok(_) => panic!("flipped magic must fail"),
        Err(e) => e,
    };
    let msg = err.to_string();
    assert!(msg.contains("wal corrupt"), "got: {msg}");
    assert!(
        msg.contains(seg.file_name().and_then(|n| n.to_str()).expect("name")),
        "got: {msg}"
    );
}
