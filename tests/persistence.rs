//! Headline durability test: a server that is hard-stopped mid-batch
//! and recovered from its write-ahead log produces wire output
//! byte-identical to a server that never crashed, and recovering the
//! same log twice gives the same engine.
//!
//! The crash is simulated at the worst legal point: an update batch
//! that reached the log (journal-then-apply means the record is
//! durable) but whose effects never landed in memory. Recovery must
//! apply it; dropping it would silently lose acknowledged work.

use privacy_lbs::anonymizer::{CloakRequirement, PrivacyProfile, QuadCloak};
use privacy_lbs::geom::{Point, Rect, SimTime};
use privacy_lbs::server::PublicObject;
use privacy_lbs::store::{open_engine, open_system, recover_engine, Wal};
use privacy_lbs::system::journal;
use privacy_lbs::system::wire::{self, StandingKind};
use privacy_lbs::system::{
    Durability, EngineConfig, EngineOp, JournalRecord, MobileUser, PrivacyAwareSystem,
    ShardedEngine, UserId,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------
// Test hygiene: every run gets its own scratch directory, cleaned up by
// a drop guard even when an assertion panics mid-test.
// ---------------------------------------------------------------------

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("lbsp-persistence-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------
// The mixed workload, split at the crash point.
// ---------------------------------------------------------------------

fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

fn profile(k: u32) -> PrivacyProfile {
    PrivacyProfile::uniform(CloakRequirement::k_only(k)).expect("valid profile")
}

fn wave(n: u64, salt: u64) -> Vec<(UserId, Point, SimTime)> {
    (0..n)
        .map(|i| {
            let x = (((i + salt) as f64 * 0.618_033_988_749) % 1.0).min(0.999);
            let y = (((i + 3 * salt) as f64 * 0.414_213_562_373) % 1.0).min(0.999);
            (i % 32, Point::new(x, y), SimTime::from_secs(salt as f64))
        })
        .collect()
}

/// Everything that happens before the crash: registrations, public
/// data, a first update wave, standing queries.
fn phase_before(engine: &mut ShardedEngine) -> (u64, u64) {
    for i in 0..32u64 {
        engine.register(i, profile(3 + (i % 3) as u32));
    }
    let objects: Vec<PublicObject> = (0..25)
        .map(|i| {
            PublicObject::new(
                i,
                Point::new(((i as f64) * 0.041) % 1.0, ((i as f64) * 0.067) % 1.0),
                (i % 2) as u32,
            )
        })
        .collect();
    engine.load_public(objects);
    engine.process_updates(&wave(64, 1));
    let qc = engine.add_standing_count(Rect::new_unchecked(0.15, 0.15, 0.85, 0.85));
    let qr = engine.add_standing_range(5, 0.25);
    (qc, qr)
}

/// The batch in flight when the crash hits.
fn crash_batch() -> Vec<(UserId, Point, SimTime)> {
    wave(48, 11)
}

/// Everything after recovery, returning the run's wire output: every
/// cloaked-update frame of two more waves, both standing-query states,
/// the drained change list, and a range-query response.
fn phase_after(engine: &mut ShardedEngine, qc: u64, qr: u64) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = Vec::new();
    for salt in [17u64, 23] {
        for frame in engine.process_updates_wire(&wave(64, salt)) {
            out.push(frame.expect("registered users cloak").to_vec());
        }
    }
    for (kind, id) in [(StandingKind::Count, qc), (StandingKind::Range, qr)] {
        let state = engine
            .standing_state(kind, id)
            .expect("standing query live");
        out.push(wire::encode_standing_state(&state).to_vec());
    }
    out.push(
        engine
            .take_standing_changes()
            .into_iter()
            .flat_map(|(kind, id)| {
                let mut row = vec![kind as u8];
                row.extend_from_slice(&id.to_le_bytes());
                row
            })
            .collect(),
    );
    let answer = engine
        .range_query(5, SimTime::from_secs(23.0), 0.25)
        .expect("user 5 has a cloak");
    out.push(answer.response.to_vec());
    out.push(journal::encode_engine_state(&engine.export_state()).to_vec());
    out
}

/// Highest-numbered WAL segment in `dir` (for appending the in-flight
/// record the way the crashed process's log thread would have).
fn last_segment_seq(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .expect("read log dir")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name();
            let name = name
                .to_str()?
                .strip_prefix("wal-")?
                .strip_suffix(".log")?
                .to_string();
            u64::from_str_radix(&name, 16).ok()
        })
        .max()
        .expect("log has segments")
}

#[test]
fn crashed_and_recovered_run_matches_uncrashed_run_byte_for_byte() {
    // ----- Reference: the run that never crashes. -----
    let mut reference = ShardedEngine::new(EngineConfig::new(world()), 1);
    let (qc, qr) = phase_before(&mut reference);
    reference.process_updates(&crash_batch());
    let expected = phase_after(&mut reference, qc, qr);

    // ----- Durable run, hard-stopped mid-batch. -----
    let dir = TempDir::new("headline");
    let policy = Durability {
        snapshot_every: 24,
        fsync: true,
    };
    let opened = open_engine(dir.path(), EngineConfig::new(world()), 1, policy)
        .expect("fresh durable engine");
    assert!(!opened.recovered);
    let mut engine = opened.engine;
    let (qc2, qr2) = phase_before(&mut engine);
    assert_eq!((qc2, qr2), (qc, qr), "query ids are deterministic");
    // Hard stop: drop the engine (no graceful shutdown exists to
    // call — the log must already be complete at every instant).
    drop(engine);

    // The crash batch was journaled but never applied: append the
    // record exactly as the crashed process's WAL had it.
    {
        let next = recover_engine(dir.path())
            .expect("pre-crash log recovers")
            .next_op_index;
        let mut wal = Wal::create_segment(dir.path(), last_segment_seq(dir.path()) + 1, next)
            .expect("segment for the in-flight record");
        wal.append_record(&JournalRecord::Op(EngineOp::UpdateBatch {
            rows: crash_batch(),
        }))
        .expect("append in-flight batch");
        wal.sync_log().expect("sync in-flight batch");
    }

    // ----- Recover (read-only) and resume. -----
    let recovered = recover_engine(dir.path()).expect("recovery succeeds");
    assert_eq!(recovered.users, 32);
    assert!(recovered.torn.is_none());
    let mut resumed = recovered.engine;
    let actual = phase_after(&mut resumed, qc, qr);

    assert_eq!(expected.len(), actual.len(), "same number of wire frames");
    for (i, (e, a)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(e, a, "wire frame {i} differs after recovery");
    }
}

#[test]
fn recovery_is_repeatable() {
    // One log, recovered twice: recovery only reads the directory, so
    // both rebuilds hold byte-identical state and go on to emit
    // byte-identical output.
    let dir = TempDir::new("twice");
    let policy = Durability {
        snapshot_every: u64::MAX,
        fsync: true,
    };
    let opened = open_engine(dir.path(), EngineConfig::new(world()), 1, policy)
        .expect("fresh durable engine");
    let mut engine = opened.engine;
    let (qc, qr) = phase_before(&mut engine);
    engine.process_updates(&crash_batch());
    drop(engine);

    let mut first = recover_engine(dir.path()).expect("first recovery");
    let mut second = recover_engine(dir.path()).expect("second recovery");
    assert_eq!(
        journal::encode_engine_state(&first.engine.export_state()),
        journal::encode_engine_state(&second.engine.export_state())
    );
    assert_eq!(
        phase_after(&mut first.engine, qc, qr),
        phase_after(&mut second.engine, qc, qr)
    );
}

#[test]
fn a_refused_duplicate_load_leaves_the_log_replayable() {
    // A public load with a duplicate id is refused before the
    // write-ahead append, so the log holds only loads that apply and a
    // restart recovers the set loaded before the refusal.
    let dir = TempDir::new("duplicate");
    let policy = Durability {
        snapshot_every: u64::MAX,
        fsync: true,
    };
    let poi = |id, x| PublicObject::new(id, Point::new(x, 0.5), 0);
    let kept = vec![poi(1, 0.25), poi(2, 0.75)];
    let mut engine = open_engine(dir.path(), EngineConfig::new(world()), 1, policy)
        .expect("fresh durable engine")
        .engine;
    engine.load_public(kept.clone());
    let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.load_public(vec![poi(3, 0.1), poi(4, 0.2), poi(3, 0.3)]);
    }));
    assert!(refused.is_err(), "a duplicate id is refused");
    drop(engine);

    let reopened =
        open_engine(dir.path(), EngineConfig::new(world()), 1, policy).expect("the log replays");
    assert!(reopened.recovered);
    assert_eq!(reopened.engine.export_state().public, kept);
}

#[test]
fn full_system_replays_through_open_system() {
    // The end-to-end system (anonymizer + server behind one facade) is
    // replay-only: same ops into a deterministically rebuilt system
    // must converge on the same answers.
    let secret = 0xA11CE;
    let objects: Vec<PublicObject> = (0..12)
        .map(|i| PublicObject::new(i, Point::new(((i as f64) * 0.083) % 1.0, 0.35), 0))
        .collect();
    let make = || PrivacyAwareSystem::new(QuadCloak::new(world(), 6), secret, objects.clone());

    // Reference: never crashes.
    let mut reference = make();
    let drive = |sys: &mut PrivacyAwareSystem<QuadCloak>| {
        for i in 0..24u64 {
            sys.register_user(MobileUser::active(i, profile(4)));
        }
        for (id, p, t) in wave(48, 3) {
            let _ = sys.process_update(id, p, t);
        }
        sys.add_standing_count(Rect::new_unchecked(0.2, 0.2, 0.8, 0.8));
        for (id, p, t) in wave(48, 9) {
            let _ = sys.process_update(id, p, t);
        }
    };
    drive(&mut reference);

    // Durable run: drive, hard-stop, reopen, compare live behavior.
    let dir = TempDir::new("system");
    let policy = Durability::default();
    {
        let opened = open_system(dir.path(), make, policy).expect("fresh durable system");
        assert!(!opened.recovered);
        let mut sys = opened.system;
        drive(&mut sys);
    }
    let reopened = open_system(dir.path(), make, policy).expect("system recovers");
    assert!(reopened.recovered);
    assert!(reopened.ops_replayed > 0);
    let mut sys = reopened.system;

    assert_eq!(sys.user_count(), reference.user_count());
    assert_eq!(sys.server_stats().updates, reference.server_stats().updates);
    // Same queries, same answers.
    for id in [0u64, 5, 11, 17] {
        let a = sys.private_range_query(id, 0.2, SimTime::from_secs(9.0));
        let b = reference.private_range_query(id, 0.2, SimTime::from_secs(9.0));
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.candidates, y.candidates, "user {id} candidates differ");
                assert_eq!(x.cloak, y.cloak, "user {id} cloak differs");
            }
            (Err(_), Err(_)) => {}
            (x, y) => panic!("user {id}: recovered {x:?} vs reference {y:?} disagree"),
        }
    }
    // And both keep evolving identically.
    for (id, p, t) in wave(24, 31) {
        let a = sys.process_update(id, p, t);
        let b = reference.process_update(id, p, t);
        assert_eq!(a.is_ok(), b.is_ok(), "user {id} post-recovery update");
        assert_eq!(a.ok(), b.ok(), "user {id} post-recovery cloak");
    }
}
